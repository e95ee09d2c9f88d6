// Package mem models the GPU device memory as seen by the unified-memory
// runtime: a fixed pool of physical frames and a single-level page table
// mapping resident virtual pages to frames.
//
// The paper simplifies the page table to a single level with a fixed walk
// latency; the walk latency itself is modelled by package walker. This
// package is purely the residency/occupancy state plus accounting.
package mem

import (
	"errors"
	"fmt"

	"hpe/internal/addrspace"
)

// ErrFull is returned by Insert when no free frame exists; the caller (the
// UVM driver) must evict first.
var ErrFull = errors.New("mem: device memory full")

// ErrNotResident is returned by Evict for a page that is not mapped.
var ErrNotResident = errors.New("mem: page not resident")

// FrameID identifies a physical frame in device memory.
type FrameID uint32

// DeviceMemory is the GPU-resident frame pool plus page table.
type DeviceMemory struct {
	capacity int
	table    addrspace.Table[addrspace.PageID, FrameID]
	free     []FrameID

	// Stats
	inserts uint64
	evicts  uint64
	peak    int
}

// NewDeviceMemory returns a memory with the given capacity in frames
// (pages). Capacity must be positive.
func NewDeviceMemory(capacityFrames int) *DeviceMemory {
	if capacityFrames <= 0 {
		panic(fmt.Sprintf("mem: capacity %d must be positive", capacityFrames))
	}
	free := make([]FrameID, capacityFrames)
	for i := range free {
		// Hand out frames in ascending order: free list is a stack, so push
		// descending.
		free[i] = FrameID(capacityFrames - 1 - i)
	}
	return &DeviceMemory{capacity: capacityFrames, free: free}
}

// Reserve sizes the page table for pages in [lo, hi], so that mapping them
// never grows it mid-run.
func (m *DeviceMemory) Reserve(lo, hi addrspace.PageID) { m.table.Reserve(lo, hi) }

// Capacity returns the total number of frames.
func (m *DeviceMemory) Capacity() int { return m.capacity }

// Len returns the number of resident pages.
func (m *DeviceMemory) Len() int { return m.table.Len() }

// Full reports whether no free frame remains.
func (m *DeviceMemory) Full() bool { return len(m.free) == 0 }

// Resident reports whether the page is mapped.
func (m *DeviceMemory) Resident(p addrspace.PageID) bool { return m.table.Has(p) }

// Frame returns the frame backing a resident page.
func (m *DeviceMemory) Frame(p addrspace.PageID) (FrameID, bool) { return m.table.Get(p) }

// Insert maps a page to a free frame. It returns ErrFull when the memory is
// at capacity and the frame it assigned otherwise. Inserting an
// already-resident page is a programming error and panics: the UVM driver
// must never double-map.
func (m *DeviceMemory) Insert(p addrspace.PageID) (FrameID, error) {
	if m.table.Has(p) {
		panic(fmt.Sprintf("mem: double map of %v", p))
	}
	if len(m.free) == 0 {
		return 0, ErrFull
	}
	f := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.table.Put(p, f)
	m.inserts++
	m.peak = max(m.peak, m.table.Len())
	return f, nil
}

// Evict unmaps a resident page, returning its frame to the free pool.
func (m *DeviceMemory) Evict(p addrspace.PageID) error {
	f, ok := m.table.Get(p)
	if !ok {
		return ErrNotResident
	}
	m.table.Delete(p)
	m.free = append(m.free, f)
	m.evicts++
	return nil
}

// Stats reports cumulative insert/evict counts and the peak occupancy.
func (m *DeviceMemory) Stats() (inserts, evicts uint64, peak int) {
	return m.inserts, m.evicts, m.peak
}

// ResidentPages returns the number of resident pages belonging to the given
// page set under geometry g. The HPE policy uses this when draining a victim
// set.
func (m *DeviceMemory) ResidentPages(g addrspace.Geometry, s addrspace.SetID) []addrspace.PageID {
	var out []addrspace.PageID
	for off := 0; off < g.SetSize(); off++ {
		p := g.PageAt(s, off)
		if m.Resident(p) {
			out = append(out, p)
		}
	}
	return out
}
