package policy

import (
	"math/rand"
	"testing"

	"hpe/internal/addrspace"
)

type refRRIPEntry struct {
	page  addrspace.PageID
	rrpv  uint8
	delay uint64 // global page-fault number at insertion
	valid bool
}

// referenceRRIP is RRIP as it was before the per-RRPV bitsets: a linear
// scan of the ring from slot 0 for every victim and per-entry aging,
// retained as the differential oracle. One repair: the aging loop counted
// rounds in a uint8, which never exceeds maxRRPV = 255 at MBits 8, so a
// search with every page too young never reached the relaxed scan.
type referenceRRIP struct {
	cfg        RRIPConfig
	maxRRPV    uint8
	ring       []refRRIPEntry
	index      addrspace.Table[addrspace.PageID, int]
	freeSlots  []int
	faultCount uint64
}

func newReferenceRRIP(cfg RRIPConfig) *referenceRRIP {
	return &referenceRRIP{cfg: cfg, maxRRPV: uint8(1<<cfg.MBits - 1)}
}

func (r *referenceRRIP) OnWalkHit(p addrspace.PageID, seq int) {
	if i, ok := r.index.Get(p); ok && r.ring[i].rrpv > 0 {
		r.ring[i].rrpv--
	}
}

func (r *referenceRRIP) OnFault(p addrspace.PageID, seq int) { r.faultCount++ }

func (r *referenceRRIP) OnMapped(p addrspace.PageID, seq int) {
	rrpv := r.maxRRPV - 1
	if r.cfg.InsertDistant {
		rrpv = r.maxRRPV
	}
	e := refRRIPEntry{page: p, rrpv: rrpv, delay: r.faultCount, valid: true}
	if n := len(r.freeSlots); n > 0 {
		i := r.freeSlots[n-1]
		r.freeSlots = r.freeSlots[:n-1]
		r.ring[i] = e
		r.index.Put(p, i)
		return
	}
	r.index.Put(p, len(r.ring))
	r.ring = append(r.ring, e)
}

func (r *referenceRRIP) eligible(e *refRRIPEntry) bool {
	return r.faultCount-e.delay >= r.cfg.DelayThreshold
}

func (r *referenceRRIP) SelectVictim() addrspace.PageID {
	if r.index.Len() == 0 {
		panic("policy: RRIP.SelectVictim with no resident pages")
	}
	for round := 0; round <= int(r.maxRRPV); round++ {
		if p, ok := r.scan(true); ok {
			return p
		}
		for i := range r.ring {
			if r.ring[i].valid && r.ring[i].rrpv < r.maxRRPV {
				r.ring[i].rrpv++
			}
		}
	}
	if p, ok := r.scan(false); ok {
		return p
	}
	panic("policy: RRIP.SelectVictim scan failed despite resident pages")
}

func (r *referenceRRIP) scan(withDelay bool) (addrspace.PageID, bool) {
	for i := range r.ring {
		e := &r.ring[i]
		if !e.valid || e.rrpv != r.maxRRPV {
			continue
		}
		if withDelay && !r.eligible(e) {
			continue
		}
		return e.page, true
	}
	return 0, false
}

func (r *referenceRRIP) OnEvicted(p addrspace.PageID) {
	if i, ok := r.index.Get(p); ok {
		r.ring[i].valid = false
		r.freeSlots = append(r.freeSlots, i)
		r.index.Delete(p)
	}
}

func (r *referenceRRIP) Len() int { return r.index.Len() }

// rripConfigs are the configurations FuzzRRIPReference cycles through:
// MBits 1, 2 and 8, distant insertion off and on, and delay thresholds 0,
// 2 and 128.
var rripConfigs = func() []RRIPConfig {
	var cfgs []RRIPConfig
	for _, m := range []uint{1, 2, 8} {
		for _, distant := range []bool{false, true} {
			for _, delay := range []uint64{0, 2, 128} {
				cfgs = append(cfgs, RRIPConfig{MBits: m, InsertDistant: distant, DelayThreshold: delay})
			}
		}
	}
	return cfgs
}()

// FuzzRRIPReference drives RRIP and the linear-scan reference with the same
// stream and fails on the first victim or Len that differs. The first byte
// picks the configuration; each later pair of bytes is one operation and a
// page out of 256, so the ring spans up to four bitset words. A fault maps
// its page when it is absent, first evicting the policy's victim when 192
// pages are resident; a bare eviction of a random page also occurs.
func FuzzRRIPReference(f *testing.F) {
	for c := range rripConfigs {
		rng := rand.New(rand.NewSource(int64(c)))
		ops := make([]byte, 1+2*1500)
		rng.Read(ops)
		ops[0] = byte(c)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := rripConfigs[int(data[0])%len(rripConfigs)]
		fast, ref := NewRRIP(cfg), newReferenceRRIP(cfg)
		var resident addrspace.Table[addrspace.PageID, bool]
		evict := func(op int) {
			v, rv := fast.SelectVictim(), ref.SelectVictim()
			if v != rv {
				t.Fatalf("%+v op %d: victim %d, reference %d", cfg, op, v, rv)
			}
			fast.OnEvicted(v)
			ref.OnEvicted(v)
			resident.Delete(v)
		}
		for i := 1; i+1 < len(data); i += 2 {
			op, p := i/2, addrspace.PageID(data[i+1])
			switch data[i] % 8 {
			case 0, 1, 2:
				fast.OnWalkHit(p, op)
				ref.OnWalkHit(p, op)
			case 3, 4, 5:
				fast.OnFault(p, op)
				ref.OnFault(p, op)
				if resident.Has(p) {
					break
				}
				if resident.Len() == 192 {
					evict(op)
				}
				fast.OnMapped(p, op)
				ref.OnMapped(p, op)
				resident.Put(p, true)
			case 6:
				if resident.Len() > 0 {
					evict(op)
				}
			default:
				fast.OnEvicted(p)
				ref.OnEvicted(p)
				resident.Delete(p)
			}
			if fast.Len() != ref.Len() {
				t.Fatalf("%+v op %d: Len %d, reference %d", cfg, op, fast.Len(), ref.Len())
			}
		}
	})
}
