package server

import (
	"math"
	"testing"
	"testing/quick"

	"conscale/internal/des"
)

// onDone returns a bare pool client: a request outside any server, which
// completes — running fn — when its burst ends or its connection is
// granted.
func onDone(fn func()) *Request {
	return &Request{Done: func(bool) { fn() }}
}

func TestProcPoolSingleChannelFCFS(t *testing.T) {
	eng := des.New()
	p := NewProcPool(eng, 1, des.Second)
	var order []int
	var ends []des.Time
	for i := 0; i < 3; i++ {
		i := i
		p.Demand(1, onDone(func() {
			order = append(order, i)
			ends = append(ends, eng.Now())
		}))
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FCFS violated: %v", order)
		}
	}
	want := []des.Time{1, 2, 3}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestProcPoolParallelChannels(t *testing.T) {
	eng := des.New()
	p := NewProcPool(eng, 2, des.Second)
	var ends []des.Time
	for i := 0; i < 4; i++ {
		p.Demand(1, onDone(func() { ends = append(ends, eng.Now()) }))
	}
	eng.Run()
	want := []des.Time{1, 1, 2, 2}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestProcPoolBusyNeverExceedsChannels(t *testing.T) {
	eng := des.New()
	p := NewProcPool(eng, 3, des.Second)
	maxBusy := 0
	var submit func(n int)
	submit = func(n int) {
		if n == 0 {
			return
		}
		p.Demand(0.5, onDone(func() {
			if p.Busy() > maxBusy {
				maxBusy = p.Busy()
			}
		}))
		submit(n - 1)
	}
	submit(20)
	eng.Run()
	if maxBusy > 3 {
		t.Fatalf("busy reached %d with 3 channels", maxBusy)
	}
}

func TestProcPoolSetChannelsGrowDispatches(t *testing.T) {
	eng := des.New()
	p := NewProcPool(eng, 1, des.Second)
	var ends []des.Time
	for i := 0; i < 2; i++ {
		p.Demand(1, onDone(func() { ends = append(ends, eng.Now()) }))
	}
	eng.At(0.5, func() { p.SetChannels(2) })
	eng.Run()
	// Second burst starts at 0.5 (when the channel appears), ends at 1.5.
	if ends[1] != 1.5 {
		t.Fatalf("second end = %v, want 1.5", ends[1])
	}
}

func TestProcPoolZeroDemand(t *testing.T) {
	eng := des.New()
	p := NewProcPool(eng, 1, des.Second)
	fired := false
	p.Demand(0, onDone(func() { fired = true }))
	eng.Run()
	if !fired {
		t.Fatal("zero-duration burst never completed")
	}
}

func TestProcPoolNegativeDemandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewProcPool(des.New(), 1, des.Second).Demand(-1, onDone(func() {}))
}

func TestProcPoolUtilization(t *testing.T) {
	eng := des.New()
	p := NewProcPool(eng, 2, des.Second)
	p.Demand(0.5, onDone(func() {})) // one of two channels busy for 0.5s
	eng.Run()
	eng.RunUntil(1)
	samples := p.FlushUtil()
	if len(samples) != 1 {
		t.Fatalf("got %d util windows", len(samples))
	}
	if math.Abs(samples[0].Mean-0.25) > 1e-9 {
		t.Fatalf("util = %v, want 0.25", samples[0].Mean)
	}
}

func TestProcPoolTotalBusySeconds(t *testing.T) {
	eng := des.New()
	p := NewProcPool(eng, 2, des.Second)
	p.Demand(1, onDone(func() {}))
	p.Demand(2, onDone(func() {}))
	eng.Run()
	if math.Abs(p.TotalBusySeconds()-3) > 1e-9 {
		t.Fatalf("TotalBusySeconds = %v, want 3", p.TotalBusySeconds())
	}
}

func TestConnPoolLimitsConcurrency(t *testing.T) {
	c := NewConnPool(2)
	held := 0
	maxHeld := 0
	for i := 0; i < 5; i++ {
		c.Acquire(onDone(func() {
			held++
			if held > maxHeld {
				maxHeld = held
			}
		}))
	}
	if maxHeld != 2 {
		t.Fatalf("maxHeld = %d, want 2", maxHeld)
	}
	if c.InUse() != 2 || c.Waiting() != 3 {
		t.Fatalf("InUse/Waiting = %d/%d", c.InUse(), c.Waiting())
	}
	held--
	c.Release() // admits one waiter
	if c.InUse() != 2 || c.Waiting() != 2 {
		t.Fatalf("after release: InUse/Waiting = %d/%d", c.InUse(), c.Waiting())
	}
}

func TestConnPoolFIFO(t *testing.T) {
	c := NewConnPool(1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		c.Acquire(onDone(func() { order = append(order, i) }))
	}
	for i := 0; i < 3; i++ {
		c.Release()
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestConnPoolSetLimitGrowAdmits(t *testing.T) {
	c := NewConnPool(1)
	admitted := 0
	for i := 0; i < 3; i++ {
		c.Acquire(onDone(func() { admitted++ }))
	}
	if admitted != 1 {
		t.Fatalf("admitted = %d", admitted)
	}
	c.SetLimit(3)
	if admitted != 3 {
		t.Fatalf("after grow admitted = %d, want 3", admitted)
	}
}

func TestConnPoolSetLimitShrinkLazy(t *testing.T) {
	c := NewConnPool(3)
	for i := 0; i < 3; i++ {
		c.Acquire(onDone(func() {}))
	}
	c.SetLimit(1)
	if c.InUse() != 3 {
		t.Fatalf("shrink evicted holders: InUse = %d", c.InUse())
	}
	c.Release()
	c.Release()
	admitted := false
	c.Acquire(onDone(func() { admitted = true }))
	if admitted {
		t.Fatal("admitted above shrunk limit")
	}
	c.Release()
	if !admitted {
		t.Fatal("waiter not admitted after drain below limit")
	}
}

func TestConnPoolReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewConnPool(1).Release()
}

func TestOverheadBelowKneeIsOne(t *testing.T) {
	o := DefaultOverhead()
	for c := 0; c <= 22; c++ {
		if f := o.Factor(c, 1); f != 1 {
			t.Fatalf("Factor(%d, 1) = %v, want 1", c, f)
		}
	}
}

func TestOverheadScalesWithCores(t *testing.T) {
	o := DefaultOverhead()
	if o.Factor(40, 2) != 1 {
		t.Fatalf("Factor(40, 2) = %v, want 1 (knee is per-core)", o.Factor(40, 2))
	}
	if o.Factor(40, 1) <= 1 {
		t.Fatal("Factor(40, 1) should exceed 1")
	}
}

func TestOverheadMonotone(t *testing.T) {
	o := DefaultOverhead()
	prev := 0.0
	for c := 1; c <= 200; c++ {
		f := o.Factor(c, 1)
		if f < prev {
			t.Fatalf("overhead not monotone at %d", c)
		}
		prev = f
	}
}

func TestOverheadZeroAlphaDisables(t *testing.T) {
	o := Overhead{Alpha: 0, KneePerCore: 1, Power: 2}
	if o.Factor(1000, 1) != 1 {
		t.Fatal("zero alpha should disable overhead")
	}
}

// Property: ConnPool never exceeds its limit under arbitrary operation
// sequences.
func TestQuickConnPoolInvariant(t *testing.T) {
	f := func(ops []bool, limit uint8) bool {
		lim := int(limit%8) + 1
		c := NewConnPool(lim)
		outstanding := 0
		for _, acquire := range ops {
			if acquire || outstanding == 0 {
				c.Acquire(onDone(func() {}))
				outstanding++
			} else if c.InUse() > 0 {
				c.Release()
				outstanding--
			}
			if c.InUse() > lim {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: overhead factor is always >= 1.
func TestQuickOverheadAtLeastOne(t *testing.T) {
	f := func(active uint8, cores uint8) bool {
		o := DefaultOverhead()
		return o.Factor(int(active), int(cores%8)+1) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
