package server

import (
	"math"
	"testing"

	"conscale/internal/des"
	"conscale/internal/rng"
)

func newTestServer(eng *des.Engine, cfg Config) *Server {
	if cfg.Name == "" {
		cfg.Name = "test"
	}
	if cfg.Cores == 0 {
		cfg.Cores = 1
	}
	if cfg.ThreadLimit == 0 {
		cfg.ThreadLimit = 10
	}
	if cfg.AcceptQueue == 0 {
		cfg.AcceptQueue = 100
	}
	return New(eng, rng.New(1), cfg)
}

func TestServerSingleCPURequest(t *testing.T) {
	eng := des.New()
	s := newTestServer(eng, Config{})
	var ok bool
	var end des.Time
	s.Submit(&Request{
		Phases: []Phase{{Kind: PhaseCPU, Duration: 0.010}},
		Done:   func(o bool) { ok = o; end = eng.Now() },
	})
	eng.Run()
	if !ok {
		t.Fatal("request failed")
	}
	if math.Abs(float64(end)-0.010) > 1e-9 {
		t.Fatalf("completed at %v, want 0.010", end)
	}
}

func TestServerThreadLimitEnforced(t *testing.T) {
	eng := des.New()
	s := newTestServer(eng, Config{ThreadLimit: 2, Cores: 8})
	maxActive := 0
	for i := 0; i < 6; i++ {
		s.Submit(&Request{
			Phases: []Phase{{Kind: PhaseSleep, Duration: 1}},
			Done:   func(bool) {},
		})
	}
	eng.Every(0.1, func() {
		if s.Active() > maxActive {
			maxActive = s.Active()
		}
		if eng.Now() > 5 {
			eng.Stop()
		}
	})
	eng.Run()
	if maxActive != 2 {
		t.Fatalf("maxActive = %d, want 2", maxActive)
	}
}

func TestServerAcceptQueueOverflowRejects(t *testing.T) {
	eng := des.New()
	s := newTestServer(eng, Config{ThreadLimit: 1, AcceptQueue: 2})
	okCount, failCount := 0, 0
	done := func(ok bool) {
		if ok {
			okCount++
		} else {
			failCount++
		}
	}
	for i := 0; i < 5; i++ {
		s.Submit(&Request{Phases: []Phase{{Kind: PhaseSleep, Duration: 1}}, Done: done})
	}
	eng.Run()
	// 1 in service + 2 queued accepted; 2 rejected.
	if okCount != 3 || failCount != 2 {
		t.Fatalf("ok/fail = %d/%d, want 3/2", okCount, failCount)
	}
}

func TestServerQueueingDelaysResponse(t *testing.T) {
	eng := des.New()
	s := newTestServer(eng, Config{ThreadLimit: 1})
	var ends []des.Time
	for i := 0; i < 3; i++ {
		s.Submit(&Request{
			Phases: []Phase{{Kind: PhaseCPU, Duration: 0.1}},
			Done:   func(bool) { ends = append(ends, eng.Now()) },
		})
	}
	eng.Run()
	want := []des.Time{0.1, 0.2, 0.3}
	for i := range want {
		if math.Abs(float64(ends[i]-want[i])) > 1e-9 {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestServerRTIncludesQueueTime(t *testing.T) {
	eng := des.New()
	s := newTestServer(eng, Config{ThreadLimit: 1})
	for i := 0; i < 2; i++ {
		s.Submit(&Request{Phases: []Phase{{Kind: PhaseCPU, Duration: 0.1}}, Done: func(bool) {}})
	}
	eng.Run()
	eng.RunUntil(1) // let the final window close before flushing
	samples := s.FlushFine()
	totalRT := 0.0
	n := 0
	for _, w := range samples {
		if w.Completions > 0 {
			totalRT += w.RT * float64(w.Completions)
			n += w.Completions
		}
	}
	// RT1 = 0.1, RT2 = 0.2 (waited 0.1) → mean 0.15.
	if n != 2 || math.Abs(totalRT/float64(n)-0.15) > 1e-9 {
		t.Fatalf("mean RT = %v over %d, want 0.15", totalRT/float64(n), n)
	}
}

func TestServerDownstreamCallHoldsThread(t *testing.T) {
	eng := des.New()
	db := newTestServer(eng, Config{Name: "db", ThreadLimit: 10})
	app := newTestServer(eng, Config{Name: "app", ThreadLimit: 10})
	var end des.Time
	app.Submit(&Request{
		Phases: []Phase{
			{Kind: PhaseCPU, Duration: 0.010},
			{Kind: PhaseCall, Call: &OutCall{
				Target: db,
				Phases: []Phase{{Kind: PhaseCPU, Duration: 0.020}},
			}},
			{Kind: PhaseCPU, Duration: 0.005},
		},
		Done: func(bool) { end = eng.Now() },
	})
	var activeDuringCall int
	eng.At(0.020, func() { activeDuringCall = app.Active() })
	eng.Run()
	if activeDuringCall != 1 {
		t.Fatalf("app thread released during downstream call (active=%d)", activeDuringCall)
	}
	if math.Abs(float64(end)-0.035) > 1e-9 {
		t.Fatalf("end = %v, want 0.035", end)
	}
}

func TestServerConnPoolGatesDownstream(t *testing.T) {
	eng := des.New()
	db := newTestServer(eng, Config{Name: "db", ThreadLimit: 100})
	app := newTestServer(eng, Config{Name: "app", ThreadLimit: 100, Cores: 8})
	pool := NewConnPool(2)
	maxDB := 0
	for i := 0; i < 8; i++ {
		app.Submit(&Request{
			Phases: []Phase{{Kind: PhaseCall, Call: &OutCall{
				Target: db,
				Pool:   pool,
				Phases: []Phase{{Kind: PhaseSleep, Duration: 0.1}},
			}}},
			Done: func(bool) {},
		})
	}
	eng.Every(0.01, func() {
		if db.Active() > maxDB {
			maxDB = db.Active()
		}
		if eng.Now() > 2 {
			eng.Stop()
		}
	})
	eng.Run()
	if maxDB > 2 {
		t.Fatalf("DB concurrency %d exceeded pool limit 2", maxDB)
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool leaked: InUse = %d", pool.InUse())
	}
}

func TestServerDownstreamFailurePropagates(t *testing.T) {
	eng := des.New()
	db := newTestServer(eng, Config{Name: "db", ThreadLimit: 1, AcceptQueue: 1})
	app := newTestServer(eng, Config{Name: "app", ThreadLimit: 100, Cores: 8})
	okCount, failCount := 0, 0
	for i := 0; i < 5; i++ {
		app.Submit(&Request{
			Phases: []Phase{{Kind: PhaseCall, Call: &OutCall{
				Target: db,
				Phases: []Phase{{Kind: PhaseSleep, Duration: 0.5}},
			}}},
			Done: func(ok bool) {
				if ok {
					okCount++
				} else {
					failCount++
				}
			},
		})
	}
	eng.Run()
	if okCount != 2 || failCount != 3 {
		t.Fatalf("ok/fail = %d/%d, want 2/3", okCount, failCount)
	}
}

func TestServerDrainingRejects(t *testing.T) {
	eng := des.New()
	s := newTestServer(eng, Config{})
	s.SetDraining(true)
	var ok bool
	var called bool
	s.Submit(&Request{Phases: nil, Done: func(o bool) { ok = o; called = true }})
	eng.Run()
	if !called || ok {
		t.Fatalf("draining server: called=%v ok=%v, want called rejection", called, ok)
	}
}

func TestServerSetThreadLimitGrowAdmitsQueued(t *testing.T) {
	eng := des.New()
	s := newTestServer(eng, Config{ThreadLimit: 1, Cores: 8})
	started := 0
	for i := 0; i < 4; i++ {
		s.Submit(&Request{
			Phases: []Phase{{Kind: PhaseSleep, Duration: 10}},
			Done:   func(bool) {},
		})
	}
	eng.At(1, func() {
		started = s.Active()
		s.SetThreadLimit(4)
	})
	eng.At(1.5, func() {
		if s.Active() != 4 {
			t.Errorf("after grow Active = %d, want 4", s.Active())
		}
		eng.Stop()
	})
	eng.Run()
	if started != 1 {
		t.Fatalf("before grow Active = %d, want 1", started)
	}
}

func TestServerOverheadSlowsHighConcurrency(t *testing.T) {
	// Same total work, but run once with 1 thread and once with high
	// concurrency past the knee: the overloaded run must take longer.
	run := func(threads int) des.Time {
		eng := des.New()
		s := newTestServer(eng, Config{
			ThreadLimit: threads,
			AcceptQueue: 1000,
			Overhead:    Overhead{Alpha: 0.05, KneePerCore: 5, Power: 1},
		})
		for i := 0; i < 50; i++ {
			s.Submit(&Request{Phases: []Phase{{Kind: PhaseCPU, Duration: 0.01}}, Done: func(bool) {}})
		}
		return eng.Run()
	}
	serial := run(1)
	overloaded := run(50)
	if overloaded <= serial {
		t.Fatalf("overloaded run (%v) not slower than serial (%v)", overloaded, serial)
	}
}

func TestServerDemandJitterPreservesMean(t *testing.T) {
	eng := des.New()
	s := newTestServer(eng, Config{DemandCV: 0.4, ThreadLimit: 1, AcceptQueue: 100000})
	const n = 2000
	var last des.Time
	for i := 0; i < n; i++ {
		s.Submit(&Request{Phases: []Phase{{Kind: PhaseCPU, Duration: 0.01}}, Done: func(bool) { last = eng.Now() }})
	}
	eng.Run()
	mean := float64(last) / n
	if math.Abs(mean-0.01)/0.01 > 0.05 {
		t.Fatalf("mean service time with jitter = %v, want ~0.01", mean)
	}
}

func TestServerDiskPhase(t *testing.T) {
	eng := des.New()
	s := newTestServer(eng, Config{DiskChans: 1, ThreadLimit: 4, Cores: 4})
	var ends []des.Time
	for i := 0; i < 2; i++ {
		s.Submit(&Request{
			Phases: []Phase{{Kind: PhaseDisk, Duration: 0.1}},
			Done:   func(bool) { ends = append(ends, eng.Now()) },
		})
	}
	eng.Run()
	// One disk channel: second request serialises behind the first.
	if math.Abs(float64(ends[1])-0.2) > 1e-9 {
		t.Fatalf("second disk request ended at %v, want 0.2", ends[1])
	}
}

func TestServerDiskPhaseWithoutDiskPanics(t *testing.T) {
	eng := des.New()
	s := newTestServer(eng, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for disk phase without disk")
		}
	}()
	s.Submit(&Request{Phases: []Phase{{Kind: PhaseDisk, Duration: 0.1}}, Done: func(bool) {}})
	eng.Run()
}

func TestServerVerticalScaling(t *testing.T) {
	eng := des.New()
	s := newTestServer(eng, Config{Cores: 1, ThreadLimit: 10})
	var lastEnd des.Time
	for i := 0; i < 10; i++ {
		s.Submit(&Request{Phases: []Phase{{Kind: PhaseCPU, Duration: 1}}, Done: func(bool) { lastEnd = eng.Now() }})
	}
	eng.At(0.5, func() { s.SetCores(2) })
	eng.Run()
	// 10 seconds of work: 0.5s at 1 core, rest at 2 cores →
	// 0.5 + (10-0.5)/2 = 5.25s. (FCFS burst boundaries make it slightly
	// coarser; allow a margin.)
	if lastEnd > 6 {
		t.Fatalf("scale-up ineffective: finished at %v", lastEnd)
	}
	if s.Cores() != 2 {
		t.Fatalf("Cores = %d", s.Cores())
	}
}

func TestServerFineSamplesThroughput(t *testing.T) {
	eng := des.New()
	s := newTestServer(eng, Config{ThreadLimit: 1})
	const n = 20
	for i := 0; i < n; i++ {
		s.Submit(&Request{Phases: []Phase{{Kind: PhaseCPU, Duration: 0.010}}, Done: func(bool) {}})
	}
	eng.Run()
	eng.RunUntil(1)
	total := 0
	for _, w := range s.FlushFine() {
		total += w.Completions
	}
	if total != n {
		t.Fatalf("windows recorded %d completions, want %d", total, n)
	}
}

func TestServerConfigValidation(t *testing.T) {
	eng := des.New()
	cases := []Config{
		{Cores: 0, ThreadLimit: 1},
		{Cores: 1, ThreadLimit: 0},
		{Cores: 1, ThreadLimit: 1, AcceptQueue: -1},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			New(eng, rng.New(1), cfg)
		}()
	}
}

func TestKillFailsQueuedAndInFlight(t *testing.T) {
	eng := des.New()
	s := newTestServer(eng, Config{ThreadLimit: 2, AcceptQueue: 50})
	okCount, failCount := 0, 0
	done := func(ok bool) {
		if ok {
			okCount++
		} else {
			failCount++
		}
	}
	for i := 0; i < 6; i++ {
		s.Submit(&Request{Phases: []Phase{{Kind: PhaseSleep, Duration: 1}}, Done: done})
	}
	eng.At(0.5, func() { s.Kill() })
	eng.Run()
	if !s.Killed() || !s.Draining() {
		t.Fatal("server not marked killed")
	}
	if okCount != 0 || failCount != 6 {
		t.Fatalf("ok/fail = %d/%d, want 0/6", okCount, failCount)
	}
	// New submissions are rejected too.
	rejected := false
	s.Submit(&Request{Done: func(ok bool) { rejected = !ok }})
	eng.Run()
	if !rejected {
		t.Fatal("post-kill submission accepted")
	}
}

func TestKillMidMultiPhaseFailsAtBoundary(t *testing.T) {
	eng := des.New()
	s := newTestServer(eng, Config{ThreadLimit: 1})
	var outcome *bool
	s.Submit(&Request{
		Phases: []Phase{
			{Kind: PhaseSleep, Duration: 0.2},
			{Kind: PhaseSleep, Duration: 0.2},
			{Kind: PhaseSleep, Duration: 0.2},
		},
		Done: func(ok bool) { outcome = &ok },
	})
	eng.At(0.3, func() { s.Kill() }) // mid second phase
	end := eng.Run()
	if outcome == nil || *outcome {
		t.Fatal("in-flight request did not fail after kill")
	}
	// It failed at the next phase boundary (0.4), not at the full 0.6.
	if end > 0.5 {
		t.Fatalf("request ran to completion (%v) despite kill", end)
	}
}

func TestProcPoolShrinkLazy(t *testing.T) {
	eng := des.New()
	p := NewProcPool(eng, 2, des.Second)
	var ends []des.Time
	for i := 0; i < 4; i++ {
		p.Demand(1, onDone(func() { ends = append(ends, eng.Now()) }))
	}
	eng.At(0.5, func() { p.SetChannels(1) })
	eng.Run()
	// First two finish at 1 (already running); remaining two serialise on
	// the single channel: 2 and 3.
	want := []des.Time{1, 1, 2, 3}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if p.Channels() != 1 {
		t.Fatalf("Channels = %d", p.Channels())
	}
}

func TestProcPoolQueueLen(t *testing.T) {
	eng := des.New()
	p := NewProcPool(eng, 1, des.Second)
	for i := 0; i < 3; i++ {
		p.Demand(1, onDone(func() {}))
	}
	if p.QueueLen() != 2 || p.Busy() != 1 {
		t.Fatalf("QueueLen/Busy = %d/%d", p.QueueLen(), p.Busy())
	}
	eng.Run()
	if p.QueueLen() != 0 || p.Busy() != 0 {
		t.Fatal("pool not drained")
	}
}

func TestServerRecorderAccessor(t *testing.T) {
	eng := des.New()
	s := newTestServer(eng, Config{})
	if s.Recorder() == nil {
		t.Fatal("Recorder nil")
	}
	if s.Name() != "test" {
		t.Fatalf("Name = %s", s.Name())
	}
	if s.DiskUtilization() != 0 {
		t.Fatal("diskless server should report 0 disk util")
	}
}

func TestOverheadPowerOneFastPath(t *testing.T) {
	o := Overhead{Alpha: 0.1, KneePerCore: 2, Power: 1}
	if got := o.Factor(12, 1); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("Factor = %v, want 2.0 (1 + 0.1*10)", got)
	}
}
