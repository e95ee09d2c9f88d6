package uvm

import (
	"math"
	"testing"

	"hpe/internal/addrspace"
	"hpe/internal/hir"
	"hpe/internal/mem"
	"hpe/internal/policy"
	"hpe/internal/sim"
)

// recordingPolicy wraps LRU and logs the callback sequence.
type recordingPolicy struct {
	*policy.LRU
	calls []string
}

func (r *recordingPolicy) OnFault(p addrspace.PageID, seq int) {
	r.calls = append(r.calls, "fault")
	r.LRU.OnFault(p, seq)
}
func (r *recordingPolicy) OnMapped(p addrspace.PageID, seq int) {
	r.calls = append(r.calls, "mapped")
	r.LRU.OnMapped(p, seq)
}
func (r *recordingPolicy) OnEvicted(p addrspace.PageID) {
	r.calls = append(r.calls, "evicted")
	r.LRU.OnEvicted(p)
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.FaultLatency = 100
	return cfg
}

func TestFaultServiceLatency(t *testing.T) {
	eng := sim.NewEngine()
	m := mem.NewDeviceMemory(4)
	woken := sim.Cycle(0)
	d := New(testConfig(), eng, m, policy.NewLRU(), nil, nil, func(addrspace.PageID) { woken = eng.Now() })
	d.Fault(1, 0)
	eng.Run()
	if woken != 100 {
		t.Fatalf("fault completed at %d, want 100", woken)
	}
	if !m.Resident(1) {
		t.Fatal("page not mapped after fault")
	}
	if d.Stats().FaultsServiced != 1 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

func TestFaultsServiceSerially(t *testing.T) {
	eng := sim.NewEngine()
	m := mem.NewDeviceMemory(4)
	var times []sim.Cycle
	d := New(testConfig(), eng, m, policy.NewLRU(), nil, nil, func(addrspace.PageID) { times = append(times, eng.Now()) })
	for i := 1; i <= 3; i++ {
		d.Fault(addrspace.PageID(i), i)
	}
	eng.Run()
	want := []sim.Cycle{100, 200, 300}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("completion times %v, want %v (single-server queue)", times, want)
		}
	}
}

func TestDuplicateFaultsCoalesce(t *testing.T) {
	eng := sim.NewEngine()
	m := mem.NewDeviceMemory(4)
	woken := 0
	d := New(testConfig(), eng, m, policy.NewLRU(), nil, nil, func(addrspace.PageID) { woken++ })
	for i := 0; i < 5; i++ {
		d.Fault(7, i)
	}
	eng.Run()
	st := d.Stats()
	if st.FaultsServiced != 1 || st.Coalesced != 4 {
		t.Fatalf("serviced=%d coalesced=%d, want 1/4", st.FaultsServiced, st.Coalesced)
	}
	// The five waiters share one page, so the GPU is told once.
	if woken != 1 {
		t.Fatalf("woken = %d, want 1 resident call for the page", woken)
	}
}

func TestFaultOnResidentPageWakesImmediately(t *testing.T) {
	eng := sim.NewEngine()
	m := mem.NewDeviceMemory(4)
	woken := false
	d := New(testConfig(), eng, m, policy.NewLRU(), nil, nil, func(addrspace.PageID) { woken = true })
	d.Fault(1, 0)
	eng.Run()
	woken = false
	d.Fault(1, 1)
	if !woken {
		t.Fatal("resident-page fault did not wake synchronously")
	}
	if d.Stats().FaultsServiced != 1 {
		t.Fatal("resident-page fault was queued")
	}
}

func TestEvictionOnFullMemory(t *testing.T) {
	eng := sim.NewEngine()
	m := mem.NewDeviceMemory(2)
	rec := &recordingPolicy{LRU: policy.NewLRU()}
	invalidated := []addrspace.PageID{}
	d := New(testConfig(), eng, m, rec, nil, func(p addrspace.PageID) {
		invalidated = append(invalidated, p)
	}, nil)
	for i := 1; i <= 3; i++ {
		d.Fault(addrspace.PageID(i), i)
	}
	eng.Run()
	st := d.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if len(invalidated) != 1 || invalidated[0] != 1 {
		t.Fatalf("invalidated = %v, want [1] (LRU victim)", invalidated)
	}
	if m.Resident(1) || !m.Resident(2) || !m.Resident(3) {
		t.Fatal("wrong residency after eviction")
	}
	// Callback ordering for the third fault: fault, evicted, mapped.
	tail := rec.calls[len(rec.calls)-3:]
	if tail[0] != "fault" || tail[1] != "evicted" || tail[2] != "mapped" {
		t.Fatalf("callback order = %v", tail)
	}
}

func TestWalkHitForwarding(t *testing.T) {
	eng := sim.NewEngine()
	m := mem.NewDeviceMemory(4)
	h := hir.New(hir.DefaultConfig())
	lru := policy.NewLRU()
	d := New(testConfig(), eng, m, lru, h, nil, nil)
	d.Fault(1, 0)
	eng.Run()
	d.RecordWalkHit(1, 5)
	if h.Touched() != 1 {
		t.Fatal("walk hit not recorded in HIR")
	}
	// LRU also saw the hit (ideal feed): page 1 was refreshed. Map another
	// page and check the victim is still 1 only if the hit did not refresh —
	// it did refresh, so after adding page 2, victim should still be 1
	// (chain: 1 hit-refreshed then 2 mapped → LRU order 1,2). Refresh makes
	// 1 MRU before 2 arrives; order stays 1 then 2, victim 1 either way, so
	// probe differently: map 2, hit 1, victim must be 2.
	d.Fault(2, 1)
	eng.Run()
	d.RecordWalkHit(1, 6)
	if v := lru.SelectVictim(); v != 2 {
		t.Fatalf("victim = %v, want 2 (page 1 refreshed by walk hit)", v)
	}
}

func TestHIRDrainEveryNthFault(t *testing.T) {
	cfg := testConfig()
	cfg.TransferInterval = 2
	eng := sim.NewEngine()
	m := mem.NewDeviceMemory(64)
	h := hir.New(hir.DefaultConfig())
	d := New(cfg, eng, m, policy.NewLRU(), h, nil, nil)
	d.Fault(1, 0)
	eng.Run()
	d.RecordWalkHit(1, 1)
	if h.Touched() != 1 {
		t.Fatal("hit not pending")
	}
	d.Fault(2, 2) // 2nd serviced fault → drain
	eng.Run()
	if h.Touched() != 0 {
		t.Fatal("HIR not drained on 2nd fault")
	}
	st := d.Stats()
	if st.HIRTransferBytes == 0 || st.HIRTransferCycles == 0 {
		t.Fatalf("transfer not charged: %+v", st)
	}
}

func TestQueueDepthTracking(t *testing.T) {
	eng := sim.NewEngine()
	m := mem.NewDeviceMemory(16)
	d := New(testConfig(), eng, m, policy.NewLRU(), nil, nil, nil)
	for i := 0; i < 10; i++ {
		d.Fault(addrspace.PageID(i), i)
	}
	// The first fault went straight into service; nine wait.
	if d.Pending() != 9 {
		t.Fatalf("pending = %d, want 9", d.Pending())
	}
	eng.Run()
	if d.Stats().MaxQueueDepth != 9 {
		t.Fatalf("max depth = %d, want 9", d.Stats().MaxQueueDepth)
	}
	if d.Pending() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestChannelsOverlapFaultService(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 4
	eng := sim.NewEngine()
	m := mem.NewDeviceMemory(16)
	var times []sim.Cycle
	d := New(cfg, eng, m, policy.NewLRU(), nil, nil, func(addrspace.PageID) { times = append(times, eng.Now()) })
	for i := 0; i < 8; i++ {
		d.Fault(addrspace.PageID(i), i)
	}
	eng.Run()
	// Two waves of four: completions at 100 (×4) and 200 (×4).
	want := []sim.Cycle{100, 100, 100, 100, 200, 200, 200, 200}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("completion times %v, want %v", times, want)
		}
	}
	if d.Stats().FaultsServiced != 8 {
		t.Fatalf("serviced = %d", d.Stats().FaultsServiced)
	}
}

func TestZeroChannelsDefaultsToOne(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 0
	eng := sim.NewEngine()
	var times []sim.Cycle
	d := New(cfg, eng, mem.NewDeviceMemory(4), policy.NewLRU(), nil, nil, func(addrspace.PageID) { times = append(times, eng.Now()) })
	for i := 0; i < 2; i++ {
		d.Fault(addrspace.PageID(i), i)
	}
	eng.Run()
	if times[0] != 100 || times[1] != 200 {
		t.Fatalf("completion times %v, want serial [100 200]", times)
	}
}

func TestBusyCyclesAccumulate(t *testing.T) {
	eng := sim.NewEngine()
	m := mem.NewDeviceMemory(16)
	d := New(testConfig(), eng, m, policy.NewLRU(), nil, nil, nil)
	for i := 0; i < 4; i++ {
		d.Fault(addrspace.PageID(i), i)
	}
	eng.Run()
	// 4 faults × 100 cycles × the default 0.35 host-busy fraction.
	if got := d.Stats().BusyCycles; got != 140 {
		t.Fatalf("busy cycles = %d, want 140", got)
	}
}

func TestZeroFaultLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero fault latency accepted")
		}
	}()
	New(Config{}, sim.NewEngine(), mem.NewDeviceMemory(1), policy.NewLRU(), nil, nil, nil)
}

func TestPrefetchMigratesBlockNeighbours(t *testing.T) {
	cfg := testConfig()
	cfg.PrefetchPages = 15
	eng := sim.NewEngine()
	m := mem.NewDeviceMemory(64)
	woken := false
	d := New(cfg, eng, m, policy.NewLRU(), nil, nil, func(addrspace.PageID) { woken = true })
	d.Fault(32, 0) // block 32..47
	eng.Run()
	for p := addrspace.PageID(32); p < 48; p++ {
		if !m.Resident(p) {
			t.Fatalf("page %v not prefetched", p)
		}
	}
	st := d.Stats()
	if st.FaultsServiced != 1 || st.Prefetched != 15 {
		t.Fatalf("faults=%d prefetched=%d, want 1/15", st.FaultsServiced, st.Prefetched)
	}
	// A subsequent touch of a prefetched page is not a fault.
	woken = false
	d.Fault(33, 1)
	if !woken || d.Stats().FaultsServiced != 1 {
		t.Fatal("prefetched page refaulted")
	}
}

func TestPrefetchEvictsWhenFull(t *testing.T) {
	cfg := testConfig()
	cfg.PrefetchPages = 15
	eng := sim.NewEngine()
	m := mem.NewDeviceMemory(8)
	d := New(cfg, eng, m, policy.NewLRU(), nil, nil, nil)
	d.Fault(0, 0)
	eng.Run()
	if m.Len() != 8 {
		t.Fatalf("resident = %d, want full memory", m.Len())
	}
	st := d.Stats()
	// 1 fault + 7 prefetches fill memory; the remaining 8 block pages each
	// evict one of the earlier arrivals.
	if st.Prefetched != 15 {
		t.Fatalf("prefetched = %d, want 15", st.Prefetched)
	}
	if st.Evictions != 8 {
		t.Fatalf("evictions = %d, want 8", st.Evictions)
	}
}

func TestPrefetchSkipsPendingFaults(t *testing.T) {
	cfg := testConfig()
	cfg.PrefetchPages = 15
	eng := sim.NewEngine()
	m := mem.NewDeviceMemory(64)
	woken := 0
	d := New(cfg, eng, m, policy.NewLRU(), nil, nil, func(addrspace.PageID) { woken++ })
	d.Fault(0, 0)
	d.Fault(1, 1) // queued behind page 0
	eng.Run()
	if woken != 2 {
		t.Fatalf("woken = %d, want both faults resolved", woken)
	}
	st := d.Stats()
	// Page 1 had its own fault in flight, so page 0's prefetch skipped it:
	// 2 serviced faults, 14 prefetched pages.
	if st.FaultsServiced != 2 || st.Prefetched != 14 {
		t.Fatalf("faults=%d prefetched=%d, want 2/14", st.FaultsServiced, st.Prefetched)
	}
}

// batchSink is an LRU that records every HIR drain delivered to it.
type batchSink struct {
	*policy.LRU
	batches [][]hir.Record
	at      []sim.Cycle
	eng     *sim.Engine
}

func (b *batchSink) OnHitBatch(recs []hir.Record) {
	b.batches = append(b.batches, recs)
	b.at = append(b.at, b.eng.Now())
}

// TestHIRDrainsInFlightAcrossChannels overlaps two HIR drains on two
// service channels: each drain reaches the sink once, with its own records,
// when its PCIe transfer lands, and holds its channel until then.
func TestHIRDrainsInFlightAcrossChannels(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 2
	cfg.TransferInterval = 1
	cfg.PCIeBytesPerCycle = 0.1 // a slow link, so the transfers overlap
	eng := sim.NewEngine()
	h := hir.New(hir.DefaultConfig())
	sink := &batchSink{LRU: policy.NewLRU(), eng: eng}
	d := New(cfg, eng, mem.NewDeviceMemory(64), sink, h, nil, nil)
	transfer := sim.Cycle(math.Ceil(float64(h.TransferBytes(1)) / cfg.PCIeBytesPerCycle))

	d.Fault(40, 0) // the HIR is empty: no drain
	eng.Run()
	d.RecordWalkHit(40, 1)
	d.Fault(1, 2) // done at 200, drains page 40's set
	eng.RunUntil(150)
	d.Fault(17, 3) // done at 250, drains page 1's set
	eng.RunUntil(210)
	d.RecordWalkHit(1, 4)
	eng.RunUntil(260)
	if d.busy != 2 {
		t.Fatalf("busy = %d with both transfers in flight, want 2", d.busy)
	}
	eng.Run()

	if d.busy != 0 {
		t.Fatalf("busy = %d after the transfers landed, want 0", d.busy)
	}
	want := []sim.Cycle{200 + transfer, 250 + transfer}
	if len(sink.at) != 2 || sink.at[0] != want[0] || sink.at[1] != want[1] {
		t.Fatalf("batches delivered at %v, want %v", sink.at, want)
	}
	for i, set := range []uint64{40 >> 4, 1 >> 4} {
		if b := sink.batches[i]; len(b) != 1 || uint64(b[0].Set) != set {
			t.Fatalf("batch %d = %+v, want one record for set %d", i, b, set)
		}
	}
}

// TestWaitQueueReusesStorage keeps three or four faults waiting through a
// thousand service slots, so the queue never drains: the faults must still
// complete in arrival order, and the queue must keep reusing its backing
// array rather than reallocating as dispatched faults pile up before it.
func TestWaitQueueReusesStorage(t *testing.T) {
	const faults = 1000
	eng := sim.NewEngine()
	order := make([]addrspace.PageID, 0, faults)
	d := New(testConfig(), eng, mem.NewDeviceMemory(faults), policy.NewClock(), nil, nil,
		func(p addrspace.PageID) { order = append(order, p) })
	d.Reserve(0, faults)
	next := addrspace.PageID(0)
	for ; next < 5; next++ {
		d.Fault(next, int(next))
	}
	step := func() {
		eng.RunUntil(eng.Now() + 100) // one service slot
		if d.Pending() != 3 {
			t.Fatalf("pending = %d before fault %d, want a steady backlog of 3", d.Pending(), next)
		}
		d.Fault(next, int(next))
		next++
	}
	for next < 400 {
		step()
	}
	const measured = 200 // AllocsPerRun also runs the loop once to warm up
	allocs := testing.AllocsPerRun(1, func() {
		for k := 0; k < measured; k++ {
			step()
		}
	})
	for next < faults {
		step()
	}
	eng.Run()
	for i, p := range order {
		if p != addrspace.PageID(i) {
			t.Fatalf("completion %d was page %d: the queue reordered faults", i, p)
		}
	}
	if len(order) != faults {
		t.Fatalf("%d of %d faults completed", len(order), faults)
	}
	if allocs > 4 {
		t.Fatalf("%d steady-state faults allocated %.0f objects, want at most 4", measured, allocs)
	}
}
