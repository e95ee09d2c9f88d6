package sim

import (
	"testing"
)

// scheduler is the surface FuzzEngineEquivalence drives on both
// implementations. Engine and Reference both satisfy it; how an event is
// scheduled differs (handlers on Engine, closures on Reference), so
// runProgram takes that as a parameter.
type scheduler interface {
	Step() bool
	Run() Cycle
	RunUntil(Cycle)
	SetLimit(Cycle)
	SetCancel(uint64, func() bool)
	Cancelled() bool
	Now() Cycle
	Fired() uint64
	Pending() int
}

// fuzzOp is one decoded instruction of the equivalence program.
type fuzzOp struct {
	kind  byte
	param byte
}

// decodeProgram turns the fuzz input into a bounded op list.
func decodeProgram(data []byte) []fuzzOp {
	const maxOps = 256
	var ops []fuzzOp
	for i := 0; i+1 < len(data) && len(ops) < maxOps; i += 2 {
		ops = append(ops, fuzzOp{kind: data[i] % 8, param: data[i+1]})
	}
	return ops
}

// fuzzLogHandler appends its first payload word to the run log — the Handler
// path's analogue of the logging closures.
type fuzzLogHandler struct {
	log *[]uint64
	eng *Engine
}

func (h *fuzzLogHandler) OnEvent(a0, _ uint64) {
	*h.log = append(*h.log, a0<<16|uint64(h.eng.Now())&0xffff)
}

// runProgram executes the decoded program on one engine. schedule is how a
// plain logging event is enqueued and at how a cascade event is (closures
// for Reference, Handlers for Engine), so the same program exercises both
// implementations. It returns the fire log (event id ++ low clock bits) and
// the number of cancellation polls.
func runProgram(s scheduler, ops []fuzzOp, schedule func(at Cycle, id uint64, log *[]uint64), at func(Cycle, func())) ([]uint64, int) {
	var log []uint64
	nextID := uint64(1)
	budget := 512
	polls := 0
	emit := func(at Cycle) {
		if budget <= 0 {
			return
		}
		budget--
		id := nextID
		nextID++
		schedule(at, id, &log)
	}
	for _, op := range ops {
		d := Cycle(op.param % 64)
		switch op.kind {
		case 0, 1:
			emit(s.Now() + d)
		case 2: // cascade: the fired event schedules a follow-up
			if budget <= 0 {
				break
			}
			budget--
			id := nextID
			nextID++
			delay := Cycle(op.param%16 + 1)
			at(s.Now()+d, func() {
				log = append(log, id<<16|uint64(s.Now())&0xffff)
				emit(s.Now() + delay)
			})
		case 3:
			if op.param == 0 {
				s.SetLimit(0)
			} else {
				s.SetLimit(s.Now() + Cycle(op.param)*8)
			}
		case 4:
			s.RunUntil(s.Now() + Cycle(op.param)*4)
		case 5:
			for i := 0; i < int(op.param%8)+1; i++ {
				if !s.Step() {
					break
				}
			}
		case 6: // cancel at a random event boundary
			every := uint64(op.param%8 + 1)
			trip := int(op.param % 16)
			s.SetCancel(every, func() bool {
				polls++
				return polls > trip
			})
		case 7:
			s.SetCancel(0, nil)
		}
	}
	s.SetLimit(0)
	s.Run()
	return log, polls
}

// FuzzEngineEquivalence drives the struct-of-arrays Engine and the
// container/heap Reference with the same randomized schedule — plain and
// cascading events, SetLimit, RunUntil, partial Steps, and
// cancellation at random event boundaries — and requires identical fire
// order, clocks, fired counts, pending counts, poll counts and cancellation
// status. This is the differential proof that the hot-path rewrite preserved
// the determinism contract. The seed corpus runs on every plain `go test`
// (and through `make fuzz-seed`).
func FuzzEngineEquivalence(f *testing.F) {
	f.Add([]byte{0, 10, 0, 5, 0, 5, 1, 20})                       // plain schedules, FIFO ties
	f.Add([]byte{2, 9, 2, 33, 0, 1, 5, 3})                        // cascades + partial steps
	f.Add([]byte{0, 50, 3, 2, 0, 40, 5, 7, 3, 0})                 // limit parks, then released
	f.Add([]byte{0, 8, 6, 19, 0, 9, 0, 11, 0, 13})                // cancellation mid-run
	f.Add([]byte{4, 16, 0, 3, 4, 1, 2, 63, 7, 0, 5, 1})           // RunUntil interleaving
	f.Add([]byte{6, 2, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 3, 1}) // tight cancel + limit
	f.Add([]byte{2, 255, 2, 254, 2, 253, 4, 255, 6, 128, 0, 0})   // deep cascades
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeProgram(data)

		eng := NewEngine()
		h := &fuzzLogHandler{eng: eng}
		hid := eng.Register(h)
		th := newThunks(eng)
		engLog, engPolls := runProgram(eng, ops, func(at Cycle, id uint64, log *[]uint64) {
			h.log = log // same backing log for every call within a run
			eng.Schedule(at, hid, id, 0)
		}, th.at)

		ref := NewReference()
		refLog, refPolls := runProgram(ref, ops, func(at Cycle, id uint64, log *[]uint64) {
			ref.At(at, func() {
				*log = append(*log, id<<16|uint64(ref.Now())&0xffff)
			})
		}, ref.At)

		if len(engLog) != len(refLog) {
			t.Fatalf("fire counts diverge: engine %d, reference %d", len(engLog), len(refLog))
		}
		for i := range engLog {
			if engLog[i] != refLog[i] {
				t.Fatalf("fire order diverges at event %d: engine (id=%d, t=%d), reference (id=%d, t=%d)",
					i, engLog[i]>>16, engLog[i]&0xffff, refLog[i]>>16, refLog[i]&0xffff)
			}
		}
		if eng.Now() != ref.Now() {
			t.Fatalf("Now diverges: engine %d, reference %d", eng.Now(), ref.Now())
		}
		if eng.Fired() != ref.Fired() {
			t.Fatalf("Fired diverges: engine %d, reference %d", eng.Fired(), ref.Fired())
		}
		if eng.Pending() != ref.Pending() {
			t.Fatalf("Pending diverges: engine %d, reference %d", eng.Pending(), ref.Pending())
		}
		if eng.Cancelled() != ref.Cancelled() {
			t.Fatalf("Cancelled diverges: engine %v, reference %v", eng.Cancelled(), ref.Cancelled())
		}
		if engPolls != refPolls {
			t.Fatalf("poll counts diverge: engine %d, reference %d", engPolls, refPolls)
		}
	})
}
