package addrspace

import "math"

// Table is the simulator's one per-page (or per-set) index: a map from a
// page-like key to V, stored as a slice indexed by key - base with a
// parallel presence slice. Catalog and scenario traces touch a contiguous
// page span, so lookups are a subtraction and a bounds check instead of a
// hash.
//
// The dense store grows on demand while its span stays within
// max(8·Len, denseFloor) slots. A key that would stretch it further
// switches the table, once and for good, to a plain Go map: the slow path
// for sparse replayed traces, never taken by the generated workloads. Keys
// are never renumbered, so callers keep seeing real page and set addresses.
//
// The zero Table is empty and ready to use. No method iterates, so no
// caller can depend on an iteration order.
type Table[K ~uint64, V any] struct {
	base   K
	vals   []V
	has    []bool
	n      int
	sparse map[K]V // non-nil once the table left the dense store
}

// denseFloor is the span below which a table always stays dense: 64 Ki
// pages (256 MB of address space) cost at most a few hundred KB.
const denseFloor = 1 << 16

// Len returns the number of keys present.
func (t *Table[K, V]) Len() int {
	if t.sparse != nil {
		return len(t.sparse)
	}
	return t.n
}

// Get returns the value stored under k and whether k is present. An absent
// key yields V's zero value.
func (t *Table[K, V]) Get(k K) (V, bool) {
	if i := uint64(k - t.base); i < uint64(len(t.has)) {
		return t.vals[i], t.has[i]
	}
	v, ok := t.sparse[k]
	return v, ok
}

// Has reports whether k is present.
func (t *Table[K, V]) Has(k K) bool {
	_, ok := t.Get(k)
	return ok
}

// Put stores v under k.
func (t *Table[K, V]) Put(k K, v V) {
	if uint64(k-t.base) >= uint64(len(t.has)) && t.sparse == nil {
		t.grow(k, k, t.n+1)
	}
	if t.sparse != nil {
		t.sparse[k] = v
		return
	}
	i := k - t.base
	if !t.has[i] {
		t.has[i] = true
		t.n++
	}
	t.vals[i] = v
}

// Delete removes k, if present.
func (t *Table[K, V]) Delete(k K) {
	if i := uint64(k - t.base); i < uint64(len(t.has)) {
		if t.has[i] {
			var zero V
			t.vals[i], t.has[i] = zero, false
			t.n--
		}
		return
	}
	delete(t.sparse, k)
}

// Reserve sizes the dense store to cover [lo, hi] up front, so that later
// Puts in that span never grow it. A span wider than the density rule
// allows switches the table to its sparse map instead. lo > hi is a no-op.
func (t *Table[K, V]) Reserve(lo, hi K) {
	n := uint64(len(t.has))
	if lo <= hi && t.sparse == nil && (uint64(lo-t.base) >= n || uint64(hi-t.base) >= n) {
		t.grow(lo, hi, t.n)
	}
}

// grow re-homes the dense store over a span covering its current keys and
// [lo, hi], at least doubling it so that a table growing key by key copies
// O(log span) times; or, when that span breaks the density rule for
// entries keys, moves every entry to the sparse map.
func (t *Table[K, V]) grow(lo, hi K, entries int) {
	if len(t.has) > 0 {
		lo = min(lo, t.base)
		hi = max(hi, t.base+K(len(t.has)-1))
	}
	bound := max(8*uint64(entries), denseFloor)
	if uint64(hi-lo) >= bound {
		//lint:ignore hpelint/hotalloc one-time switch to the sparse map for a span past the density rule; allocates once per table
		t.sparse = make(map[K]V, t.n+1)
		for i, ok := range t.has {
			if ok {
				t.sparse[t.base+K(i)] = t.vals[i]
			}
		}
		t.vals, t.has, t.n = nil, nil, 0
		return
	}
	size := min(max(uint64(hi-lo)+1, 2*uint64(len(t.has)), 64), bound)
	// Leave the slack on the side the table is growing toward, without
	// wrapping past either end of the key space.
	base := lo
	if len(t.has) > 0 && lo < t.base {
		base = 0
		if uint64(hi) >= size-1 {
			base = hi - K(size-1)
		}
	} else if uint64(lo) > math.MaxUint64-(size-1) {
		base = K(math.MaxUint64 - (size - 1))
	}
	//lint:ignore hpelint/hotalloc amortized growth: the dense store at least doubles, and a span-Reserved table never grows during a run
	vals, has := make([]V, size), make([]bool, size)
	if len(t.has) > 0 {
		off := uint64(t.base - base)
		copy(vals[off:], t.vals)
		copy(has[off:], t.has)
	}
	t.base, t.vals, t.has = base, vals, has
}
