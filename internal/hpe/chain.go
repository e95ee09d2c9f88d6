package hpe

import (
	"fmt"
	"math/bits"

	"hpe/internal/addrspace"
)

// Partition identifies one of the page-set chain's three recency partitions
// (Fig. 5).
type Partition int

const (
	// PartitionOld holds sets not referenced in the last or current interval.
	PartitionOld Partition = iota
	// PartitionMiddle holds sets referenced in the last interval.
	PartitionMiddle
	// PartitionNew holds sets referenced in the current interval.
	PartitionNew
)

// String names the partition.
func (p Partition) String() string {
	switch p {
	case PartitionOld:
		return "old"
	case PartitionMiddle:
		return "middle"
	case PartitionNew:
		return "new"
	default:
		return fmt.Sprintf("Partition(%d)", int(p))
	}
}

// entryKey identifies a chain entry: the page-set address plus whether this
// is the secondary half of a divided set (primary and secondary "have
// different tags", §IV-C).
type entryKey struct {
	set       addrspace.SetID
	secondary bool
}

// packed interns the key into one word (set<<1 | secondary), the chain
// index's key: a set's primary and secondary entries sit side by side.
func (k entryKey) packed() uint64 {
	v := uint64(k.set) << 1
	if k.secondary {
		v |= 1
	}
	return v
}

func (k entryKey) String() string {
	if k.secondary {
		return fmt.Sprintf("%v/secondary", k.set)
	}
	return k.set.String()
}

// chainEntry is one page-set chain entry: tag, saturating counter, bit
// vector, divided flag (Fig. 5), plus the residency mask HPE needs to drain
// victims page by page and the interval stamp that encodes partition
// membership.
type chainEntry struct {
	key          entryKey
	counter      int
	bitVector    uint32 // offsets that have page-faulted (faults only, §IV-C)
	residentMask uint32 // offsets currently resident in device memory
	divided      bool

	// movedInterval is the interval in which the entry was last inserted or
	// moved into the new partition. Because every (re)insertion appends at
	// the tail with the then-current interval number, the chain is always
	// ordered by this stamp — so the paper's P1/P2 partition pointers are
	// equivalent to stamp thresholds, which is how we implement them.
	movedInterval uint64

	prev, next *chainEntry
}

// setChain is the page-set chain of Fig. 5: a doubly-linked list ordered
// head = LRU ... tail = MRU, with the three partitions derived from interval
// stamps.
type setChain struct {
	geometry    addrspace.Geometry
	counterCap  int
	head, tail  *chainEntry
	index       addrspace.Table[uint64, *chainEntry] // packed entryKey → entry
	curInterval uint64
}

func newSetChain(g addrspace.Geometry, counterCap int) *setChain {
	return &setChain{geometry: g, counterCap: counterCap}
}

// Len returns the number of chain entries.
func (c *setChain) Len() int { return c.index.Len() }

// partitionOf derives the entry's partition from its stamp.
func (c *setChain) partitionOf(e *chainEntry) Partition {
	switch {
	case e.movedInterval == c.curInterval:
		return PartitionNew
	case e.movedInterval+1 == c.curInterval:
		return PartitionMiddle
	default:
		return PartitionOld
	}
}

// rollover advances the interval: the new partition becomes the middle, the
// middle joins the old (the paper's P1 ← P2, P2 ← tail pointer update).
func (c *setChain) rollover() { c.curInterval++ }

func (c *setChain) get(k entryKey) *chainEntry {
	e, _ := c.index.Get(k.packed())
	return e
}

// appendTail links e at the MRU position.
func (c *setChain) appendTail(e *chainEntry) {
	e.prev, e.next = c.tail, nil
	if c.tail != nil {
		c.tail.next = e
	} else {
		c.head = e
	}
	c.tail = e
}

func (c *setChain) unlink(e *chainEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// remove deletes the entry from the chain entirely (all its pages evicted).
func (c *setChain) remove(e *chainEntry) {
	c.unlink(e)
	c.index.Delete(e.key.packed())
}

// touch applies one reference event to the chain (Fig. 6): find or create
// the entry for k, bump its counter by inc (saturating), set the bit vector
// on faults, and move the entry to the MRU position of the new partition —
// unless it is already in the new partition, in which case it stays put
// ("within an interval, once a page set has been placed into the new
// partition ... following touches will not trigger its movement").
// faultOffset is the faulting page's offset within the set, or -1 for a
// hit-batch update. Returns the entry.
func (c *setChain) touch(k entryKey, inc, faultOffset int) *chainEntry {
	e := c.get(k)
	if e == nil {
		e = &chainEntry{key: k, movedInterval: c.curInterval}
		c.index.Put(k.packed(), e)
		c.appendTail(e)
	} else if c.partitionOf(e) != PartitionNew {
		c.unlink(e)
		e.movedInterval = c.curInterval
		c.appendTail(e)
	}
	e.counter += inc
	if e.counter > c.counterCap {
		e.counter = c.counterCap
	}
	if faultOffset >= 0 {
		e.bitVector |= 1 << uint(faultOffset)
	}
	return e
}

// updateExisting is the hit-batch variant of touch: it updates and moves the
// entry only if it already exists (hit information for sets evicted before
// the drain is dropped, mirroring the HIR's lossy nature).
func (c *setChain) updateExisting(k entryKey, inc int) *chainEntry {
	if !c.index.Has(k.packed()) {
		return nil
	}
	return c.touch(k, inc, -1)
}

// oldMRU returns the MRU-most entry of the old partition, or nil when the
// old partition is empty. Because the chain is stamp-ordered, this is found
// by walking backward from the tail past the new and middle partitions.
func (c *setChain) oldMRU() *chainEntry {
	for e := c.tail; e != nil; e = e.prev {
		if c.partitionOf(e) == PartitionOld {
			return e
		}
	}
	return nil
}

// partitionLens counts entries per partition (O(n); used for stats and the
// first-full old-partition census).
func (c *setChain) partitionLens() (old, middle, new int) {
	for e := c.head; e != nil; e = e.next {
		switch c.partitionOf(e) {
		case PartitionOld:
			old++
		case PartitionMiddle:
			middle++
		default:
			new++
		}
	}
	return
}

// evictable reports whether the entry has at least one resident page.
func (e *chainEntry) evictable() bool { return e.residentMask != 0 }

// lowestResident returns the lowest offset with a resident page; the paper
// drains a victim set's pages in address order.
func (e *chainEntry) lowestResident() int {
	if e.residentMask == 0 {
		return -1
	}
	return bits.TrailingZeros32(e.residentMask)
}

// populated reports whether every page of the set has faulted at least once.
func (e *chainEntry) populated(setSize int) bool {
	return bits.OnesCount32(e.bitVector) >= setSize
}
