package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// thunks is the tests' registered handler: a0 indexes the closure to run, so
// a test can write its schedule inline while the engine sees only handler
// events.
type thunks struct {
	e   *Engine
	id  HandlerID
	fns []func()
}

func newThunks(e *Engine) *thunks {
	t := &thunks{e: e}
	t.id = e.Register(t)
	return t
}

func (t *thunks) OnEvent(a0, _ uint64) { t.fns[a0]() }

// at schedules fn at an absolute cycle.
func (t *thunks) at(at Cycle, fn func()) {
	t.fns = append(t.fns, fn)
	t.e.Schedule(at, t.id, uint64(len(t.fns)-1), 0)
}

// after schedules fn delay cycles from now.
func (t *thunks) after(delay Cycle, fn func()) { t.at(t.e.Now()+delay, fn) }

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	th := newThunks(e)
	var got []Cycle
	for _, at := range []Cycle{50, 10, 30, 20, 40} {
		at := at
		th.at(at, func() { got = append(got, at) })
	}
	end := e.Run()
	if end != 50 {
		t.Fatalf("final cycle = %d, want 50", end)
	}
	want := []Cycle{10, 20, 30, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

func TestEngineSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	th := newThunks(e)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		th.at(100, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events fired out of order: %v", got)
		}
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	th := newThunks(e)
	var at Cycle
	th.at(7, func() {
		th.after(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 12 {
		t.Fatalf("After(5) at cycle 7 fired at %d, want 12", at)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	th := newThunks(e)
	th.at(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		th.at(5, func() {})
	})
	e.Run()
}

func TestEngineCascadedEvents(t *testing.T) {
	e := NewEngine()
	th := newThunks(e)
	count := 0
	var schedule func()
	schedule = func() {
		count++
		if count < 100 {
			th.after(3, schedule)
		}
	}
	th.at(0, schedule)
	end := e.Run()
	if count != 100 {
		t.Fatalf("fired %d cascaded events, want 100", count)
	}
	if end != 99*3 {
		t.Fatalf("final cycle = %d, want %d", end, 99*3)
	}
	if e.Fired() != 100 {
		t.Fatalf("Fired() = %d, want 100", e.Fired())
	}
}

func TestEngineLimitStopsRun(t *testing.T) {
	e := NewEngine()
	th := newThunks(e)
	fired := 0
	for i := Cycle(0); i < 10; i++ {
		th.at(i*10, func() { fired++ })
	}
	e.SetLimit(45)
	e.Run()
	if fired != 5 {
		t.Fatalf("fired %d events under limit 45, want 5 (cycles 0..40)", fired)
	}
	if e.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", e.Pending())
	}
	e.SetLimit(0)
	e.Run()
	if fired != 10 {
		t.Fatalf("fired %d after removing limit, want 10", fired)
	}
}

func TestEngineRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	th := newThunks(e)
	th.at(10, func() {})
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("RunUntil(100) left clock at %d", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("event at 10 not fired")
	}
}

func TestEngineRunUntilLeavesLaterEvents(t *testing.T) {
	e := NewEngine()
	th := newThunks(e)
	fired := false
	th.at(200, func() { fired = true })
	e.RunUntil(100)
	if fired {
		t.Fatal("event at 200 fired during RunUntil(100)")
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100", e.Now())
	}
}

func TestCyclesPerMicrosecond(t *testing.T) {
	// 20 µs at 1.4 GHz (1400 MHz) = 28,000 cycles — the paper's fault penalty.
	if got := CyclesPerMicrosecond(20, 1400); got != 28000 {
		t.Fatalf("20us @ 1400MHz = %d cycles, want 28000", got)
	}
	if got := CyclesPerMicrosecond(0, 1400); got != 0 {
		t.Fatalf("0us = %d cycles, want 0", got)
	}
}

// Property: for any set of event timestamps, the engine fires them in
// non-decreasing time order and ends at the max timestamp.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		th := newThunks(e)
		var fired []Cycle
		for _, ti := range times {
			at := Cycle(ti)
			th.at(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(times) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving scheduled and cascaded events never loses events.
func TestEngineConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		th := newThunks(e)
		scheduled, fired := 0, 0
		var cascade func(depth int)
		cascade = func(depth int) {
			fired++
			if depth > 0 {
				scheduled++
				th.after(Cycle(rng.Intn(5)), func() { cascade(depth - 1) })
			}
		}
		n := 1 + rng.Intn(50)
		for i := 0; i < n; i++ {
			scheduled++
			d := rng.Intn(4)
			th.at(Cycle(rng.Intn(1000)), func() { cascade(d) })
		}
		e.Run()
		if fired != scheduled {
			t.Fatalf("trial %d: fired %d of %d scheduled events", trial, fired, scheduled)
		}
	}
}
