package addrspace

import (
	"math"
	"testing"
)

// fuzzKey maps a (class, offset) byte pair to a key in one of the regions a
// page table must handle: the dense span around a trace base, just below
// it, 2^36 pages above it (forcing the sparse switch), next to NoPage, and
// next to zero.
func fuzzKey(class, off byte) PageID {
	const base = 0x80000
	switch class % 5 {
	case 0:
		return base + PageID(off)
	case 1:
		return base - 1 - PageID(off)
	case 2:
		return base + 1<<36 + PageID(off)
	case 3:
		return NoPage - PageID(off)
	default:
		return PageID(off)
	}
}

// FuzzPageTable drives a Table and a built-in map with the same stream of
// Put, Delete, Get, Has and Reserve operations (three bytes each: op, key
// class, key offset) and fails on the first read or Len that disagrees.
func FuzzPageTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0, 9, 2, 0, 1, 1, 0, 1, 2, 0, 1, 3, 0, 9})
	f.Add([]byte{0, 0, 0, 0, 1, 5, 0, 2, 7, 2, 0, 0, 2, 1, 5, 2, 2, 7})
	f.Add([]byte{4, 0, 200, 0, 0, 100, 0, 3, 0, 0, 3, 1, 2, 3, 0, 1, 3, 0, 2, 3, 1})
	f.Add([]byte{4, 4, 0, 0, 4, 0, 0, 4, 255, 4, 1, 255, 0, 1, 255, 2, 4, 0, 2, 1, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Table[PageID, uint32]
		model := make(map[PageID]uint32)
		for i := 0; i+2 < len(ops); i += 3 {
			k := fuzzKey(ops[i+1], ops[i+2])
			switch ops[i] % 5 {
			case 0:
				tab.Put(k, uint32(i))
				model[k] = uint32(i)
			case 1:
				tab.Delete(k)
				delete(model, k)
			case 2:
				got, ok := tab.Get(k)
				want, wok := model[k]
				if got != want || ok != wok {
					t.Fatalf("op %d: Get(%v) = (%d, %v), want (%d, %v)", i/3, k, got, ok, want, wok)
				}
			case 3:
				if got, want := tab.Has(k), hasKey(model, k); got != want {
					t.Fatalf("op %d: Has(%v) = %v, want %v", i/3, k, got, want)
				}
			case 4:
				tab.Reserve(k, k+PageID(ops[i+2])*64)
			}
			if tab.Len() != len(model) {
				t.Fatalf("op %d: Len = %d, want %d", i/3, tab.Len(), len(model))
			}
		}
		for k, want := range model {
			if got, ok := tab.Get(k); !ok || got != want {
				t.Fatalf("final Get(%v) = (%d, %v), want (%d, true)", k, got, ok, want)
			}
		}
	})
}

func hasKey(m map[PageID]uint32, k PageID) bool {
	_, ok := m[k]
	return ok
}

func TestTableDenseGrowthBothWays(t *testing.T) {
	var tab Table[PageID, int]
	const base = 0x80000
	// Walk outward from the middle so the store grows up and down.
	for i := 0; i < 4096; i++ {
		k := PageID(base + i)
		if i%2 == 1 {
			k = PageID(base - i)
		}
		tab.Put(k, i)
	}
	if tab.sparse != nil {
		t.Fatal("a contiguous 4096-page span went sparse")
	}
	if tab.Len() != 4096 {
		t.Fatalf("Len = %d, want 4096", tab.Len())
	}
	for i := 0; i < 4096; i++ {
		k := PageID(base + i)
		if i%2 == 1 {
			k = PageID(base - i)
		}
		if v, ok := tab.Get(k); !ok || v != i {
			t.Fatalf("Get(%v) = (%d, %v), want (%d, true)", k, v, ok, i)
		}
	}
	if _, ok := tab.Get(base + 1); ok {
		t.Fatal("never-put key reported present")
	}
}

func TestTableSparseSwitch(t *testing.T) {
	var tab Table[PageID, int]
	tab.Put(0x80000, 1)
	tab.Put(0x80001, 2)
	tab.Put(0x80000+1<<36, 3) // far past the density rule
	if tab.sparse == nil || tab.vals != nil {
		t.Fatal("a 2^36-page span stayed dense")
	}
	for k, want := range map[PageID]int{0x80000: 1, 0x80001: 2, 0x80000 + 1<<36: 3} {
		if v, ok := tab.Get(k); !ok || v != want {
			t.Fatalf("Get(%v) after sparse switch = (%d, %v), want (%d, true)", k, v, ok, want)
		}
	}
	tab.Delete(0x80001)
	if tab.Len() != 2 || tab.Has(0x80001) {
		t.Fatalf("Delete on sparse table: Len = %d, Has = %v", tab.Len(), tab.Has(0x80001))
	}
}

func TestTableReserve(t *testing.T) {
	var tab Table[PageID, int]
	tab.Reserve(0x80000, 0x8115f)
	if tab.Len() != 0 || tab.sparse != nil || len(tab.has) < 0x1160 {
		t.Fatalf("Reserve: Len = %d, sparse = %v, span = %d", tab.Len(), tab.sparse != nil, len(tab.has))
	}
	span := len(tab.has)
	for k := PageID(0x80000); k <= 0x8115f; k++ {
		tab.Put(k, int(k))
	}
	if len(tab.has) != span {
		t.Fatalf("Put inside a reserved span grew the store from %d to %d", span, len(tab.has))
	}

	var sparse Table[PageID, int]
	sparse.Reserve(0, math.MaxUint64)
	if sparse.sparse == nil {
		t.Fatal("Reserve over the whole key space stayed dense")
	}
	sparse.Put(NoPage, 7)
	if v, ok := sparse.Get(NoPage); !ok || v != 7 {
		t.Fatalf("Get(NoPage) = (%d, %v), want (7, true)", v, ok)
	}
}

// TestTableHotOpsDoNotAllocate pins the point of the type: once a span is
// reserved, lookups, in-span Puts and Deletes cost no allocation.
func TestTableHotOpsDoNotAllocate(t *testing.T) {
	var tab Table[PageID, *int]
	tab.Reserve(0x80000, 0x80fff)
	x := 1
	k := PageID(0x80000)
	allocs := testing.AllocsPerRun(1000, func() {
		k = 0x80000 + (k+17)%0x1000
		tab.Put(k, &x)
		if !tab.Has(k) {
			t.Fatal("Has after Put = false")
		}
		if v, ok := tab.Get(k); !ok || v != &x {
			t.Fatal("Get after Put missed")
		}
		tab.Delete(k)
		tab.Get(k + 1)
	})
	if allocs != 0 {
		t.Fatalf("Get/Has/Put/Delete allocated %.1f times per run, want 0", allocs)
	}
}
