package hpe

import (
	"math/bits"

	"hpe/internal/addrspace"
	"hpe/internal/hir"
)

// divisionInfo is the persistent per-set division record. It doubles as the
// paper's history buffer: it survives the primary's removal from the chain,
// and because the first division's result is reused for every later life of
// the set, the recorded mask is immutable once set.
type divisionInfo struct {
	divided     bool
	primaryMask uint32 // offsets that belong to the primary page set
}

// HPE is the hierarchical page eviction policy (Section IV). It implements
// policy.Policy; the UVM driver additionally feeds it HIR drains through
// OnHitBatch.
type HPE struct {
	cfg       Config
	chain     *setChain
	divisions addrspace.Table[addrspace.SetID, divisionInfo]
	adj       *adjuster

	classified bool
	ratios     RatioStats
	faultCount uint64

	// Stats.
	searches      uint64
	comparisons   uint64
	divisionCount int
	lruFallbacks  uint64
	middleOrNewEv uint64
	hitBatchCount uint64
	hitBatchDrops uint64
}

// New returns an HPE policy instance. It panics on an invalid config, since
// configs are build-time constants in every caller.
func New(cfg Config) *HPE {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &HPE{
		cfg:   cfg,
		chain: newSetChain(cfg.Geometry, cfg.CounterCap),
		adj:   newAdjuster(cfg),
	}
}

// Name implements policy.Policy.
func (h *HPE) Name() string { return "HPE" }

// Config returns the policy's configuration.
func (h *HPE) Config() Config { return h.cfg }

// route resolves a page to its chain entry key, consulting the division
// history (Fig. 6): pages of an undivided set, and divided-set pages inside
// the recorded primary mask, use the primary tag; the rest use the secondary
// tag.
func (h *HPE) route(p addrspace.PageID) (entryKey, int) {
	set := h.cfg.Geometry.SetOf(p)
	off := h.cfg.Geometry.Offset(p)
	d, _ := h.divisions.Get(set)
	if d.divided && d.primaryMask&(1<<uint(off)) == 0 {
		return entryKey{set: set, secondary: true}, off
	}
	return entryKey{set: set, secondary: false}, off
}

// checkDivision applies §IV-C: the first time an undivided primary's counter
// reaches the cap with an incomplete bit vector, the set is divided and the
// bit vector becomes the immutable primary mask.
func (h *HPE) checkDivision(e *chainEntry) {
	if h.cfg.DisableDivision || e.key.secondary || e.divided ||
		e.counter < h.cfg.divisionThreshold() {
		return
	}
	if d, _ := h.divisions.Get(e.key.set); d.divided {
		e.divided = true // first-division result reused
		return
	}
	e.divided = true // the check runs once per entry life
	// The primary keeps the pages that have been touched — plus any page the
	// driver migrated speculatively (prefetch): those are resident under this
	// entry and must not route to a secondary that doesn't track them.
	mask := e.bitVector | e.residentMask
	if bits.OnesCount32(mask) >= h.cfg.Geometry.SetSize() {
		return // fully populated: stays one page set
	}
	h.divisions.Put(e.key.set, divisionInfo{divided: true, primaryMask: mask})
	h.divisionCount++
}

// OnWalkHit implements policy.Policy. In the production configuration HPE
// never sees walk hits directly (they arrive batched via OnHitBatch); with
// IdealHitFeed the hit updates the chain immediately.
func (h *HPE) OnWalkHit(p addrspace.PageID, seq int) {
	if !h.cfg.IdealHitFeed {
		return
	}
	k, _ := h.route(p)
	if e := h.chain.updateExisting(k, 1); e != nil {
		h.checkDivision(e)
	}
}

// OnHitBatch consumes one HIR drain: each record's counts are split between
// the set's primary and secondary entries per the division history, and the
// per-entry sums update counters and recency. Records for sets whose entries
// have left the chain are dropped (their information is lost, as the paper
// accepts for its lossy HIR channel).
func (h *HPE) OnHitBatch(recs []hir.Record) {
	h.hitBatchCount++
	for _, r := range recs {
		d, _ := h.divisions.Get(r.Set)
		var primarySum, secondarySum int
		for off, c := range r.Counts {
			if c == 0 {
				continue
			}
			if d.divided && d.primaryMask&(1<<uint(off)) == 0 {
				secondarySum += int(c)
			} else {
				primarySum += int(c)
			}
		}
		if primarySum > 0 {
			if e := h.chain.updateExisting(entryKey{set: r.Set}, primarySum); e != nil {
				h.checkDivision(e)
			} else {
				h.hitBatchDrops++
			}
		}
		if secondarySum > 0 {
			if e := h.chain.updateExisting(entryKey{set: r.Set, secondary: true}, secondarySum); e == nil {
				h.hitBatchDrops++
			}
		}
	}
}

// OnFault implements policy.Policy: check the wrong-eviction buffers, update
// the chain (counter + bit vector + movement), run the division check, and
// handle interval rollover.
func (h *HPE) OnFault(p addrspace.PageID, seq int) {
	if h.adj.onFault(p) && h.classified {
		h.adj.maybeAdjust(h.chain.curInterval, h.faultCount)
	}
	h.faultCount++
	k, off := h.route(p)
	e := h.chain.touch(k, 1, off)
	h.checkDivision(e)
	if h.faultCount%uint64(h.cfg.IntervalFaults) == 0 {
		h.adj.onIntervalEnd()
		h.chain.rollover()
	}
}

// OnMapped implements policy.Policy: mark the page resident in its entry.
func (h *HPE) OnMapped(p addrspace.PageID, seq int) {
	k, off := h.route(p)
	e := h.chain.get(k)
	if e == nil {
		// Defensive: the entry vanished between fault and map (only possible
		// if the driver evicted the whole set in between).
		e = h.chain.touch(k, 0, off)
	}
	e.residentMask |= 1 << uint(off)
}

// classify runs the one-time statistics classification at the first
// memory-full moment (the first SelectVictim call).
func (h *HPE) classify() {
	h.ratios = computeRatios(h.chain)
	cat := Classify(h.ratios, h.cfg.Ratio1Threshold, h.cfg.Ratio2Threshold)
	strat := initialStrategy(cat)
	if h.cfg.ManualStrategy != nil {
		strat = *h.cfg.ManualStrategy
	}
	oldLen, _, _ := h.chain.partitionLens()
	h.adj.start(cat, strat, oldLen, h.chain.curInterval, h.faultCount)
	h.classified = true
}

// SelectVictim implements policy.Policy: pick a victim page set per the
// global mechanism (§IV-D), then evict its lowest-addressed resident page.
func (h *HPE) SelectVictim() addrspace.PageID {
	if !h.classified {
		h.classify()
	}
	var e *chainEntry
	if h.adj.active == StrategyMRUC {
		e = h.selectMRUC()
	}
	if e == nil {
		e = h.selectLRU()
	}
	if e == nil {
		panic("hpe: SelectVictim found no evictable page set")
	}
	if h.chain.partitionOf(e) != PartitionOld {
		h.middleOrNewEv++
	}
	off := e.lowestResident()
	return h.cfg.Geometry.PageAt(e.key.set, off)
}

// selectLRU walks from the chain head (globally least recent) to the first
// entry with a resident page. Selecting from the old partition first is
// automatic: the head is in the oldest non-empty partition.
func (h *HPE) selectLRU() *chainEntry {
	for e := h.chain.head; e != nil; e = e.next {
		if e.evictable() {
			return e
		}
	}
	return nil
}

// selectMRUC implements the MRU-C strategy: starting from the MRU end of
// the old partition (pushed toward LRU by the accumulated search jump),
// find a page set whose counter equals the page-set size; if none exists,
// take the minimum-counter set. Returns nil when the old partition has no
// evictable entry, in which case the caller falls back to LRU over the
// middle/new partitions.
func (h *HPE) selectMRUC() *chainEntry {
	start := h.chain.oldMRU()
	if start == nil {
		h.lruFallbacks++
		return nil
	}
	for i := 0; i < h.adj.searchJump && start.prev != nil; i++ {
		start = start.prev
	}
	h.searches++
	setSize := h.cfg.Geometry.SetSize()
	// Pass 1: a set whose counter equals the page-set size.
	for e := start; e != nil; e = e.prev {
		h.comparisons++
		if e.counter == setSize && e.evictable() {
			return e
		}
	}
	// Pass 2: the minimum-counter set (ties resolved toward the MRU side).
	var best *chainEntry
	for e := start; e != nil; e = e.prev {
		h.comparisons++
		if !e.evictable() {
			continue
		}
		if best == nil || e.counter < best.counter {
			best = e
		}
	}
	if best == nil {
		h.lruFallbacks++
	}
	return best
}

// OnEvicted implements policy.Policy: clear residency, record the eviction
// in the active strategy's FIFO, and drop the entry from the chain once all
// of its pages are gone.
func (h *HPE) OnEvicted(p addrspace.PageID) {
	h.adj.recordEviction(p)
	k, off := h.route(p)
	e := h.chain.get(k)
	if e == nil {
		return
	}
	e.residentMask &^= 1 << uint(off)
	if e.residentMask == 0 {
		h.chain.remove(e)
	}
}
