package cluster

import (
	"testing"

	"conscale/internal/admission"
	"conscale/internal/trace"
)

// lifecycleAllocs warms a cluster up with rounds of `batch` submissions
// (each run to completion) and then reports the allocations of one more
// round: the steady-state cost of the Submit -> completion lifecycle.
func lifecycleAllocs(t *testing.T, c *Cluster, batch int) (allocs float64, ok, failed int) {
	t.Helper()
	done := func(success bool) {
		if success {
			ok++
		} else {
			failed++
		}
	}
	round := func() {
		for i := 0; i < batch; i++ {
			c.Submit(done)
		}
		c.Eng.Run()
	}
	for i := 0; i < 2000; i++ {
		round()
	}
	return testing.AllocsPerRun(1000, round), ok, failed
}

// TestSubmitLifecycleZeroAlloc pins the pooled request lifecycle: once
// the free list and the queues are warm, a bare request's whole trip —
// web, app and DB visits, balancer picks, CPU and disk bursts, the DB
// connection pool — allocates nothing.
func TestSubmitLifecycleZeroAlloc(t *testing.T) {
	allocs, ok, failed := lifecycleAllocs(t, New(DefaultConfig()), 1)
	if allocs != 0 {
		t.Fatalf("steady-state lifecycle allocates %.0f/op, want 0", allocs)
	}
	if ok == 0 || failed != 0 {
		t.Fatalf("outcomes ok=%d failed=%d, want all ok", ok, failed)
	}
}

// TestShedLifecycleZeroAlloc covers the failure half of the lifecycle:
// with a two-thread web tier behind a priority shedder, every round
// queues requests and sheds some, so recycled requests travel the
// asynchronous-failure path too — still without allocating.
func TestShedLifecycleZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WebThreads = 2
	cfg.Admission = map[Tier]admission.Config{
		Web: {Policy: admission.Priority, QueueCap: 4, BrowseCap: 1},
	}
	c := New(cfg)
	allocs, ok, failed := lifecycleAllocs(t, c, 8)
	if allocs != 0 {
		t.Fatalf("steady-state lifecycle with shedding allocates %.0f/op, want 0", allocs)
	}
	if ok == 0 || failed == 0 || c.Sheds() == 0 {
		t.Fatalf("outcomes ok=%d failed=%d sheds=%d, want both outcomes and sheds", ok, failed, c.Sheds())
	}
}

// TestTracedLifecycleZeroAlloc covers the span path: with every request
// sampled, burst starts, demands and segment kinds live in the pooled
// request and spans come from the tracer's own pool, so a traced trip
// allocates nothing either.
func TestTracedLifecycleZeroAlloc(t *testing.T) {
	c := New(DefaultConfig())
	tr := trace.New(trace.Config{SampleRate: 1})
	c.SetTracer(tr)
	allocs, ok, _ := lifecycleAllocs(t, c, 1)
	if allocs != 0 {
		t.Fatalf("steady-state traced lifecycle allocates %.0f/op, want 0", allocs)
	}
	if _, sampled, completed, _ := tr.Stats(); sampled == 0 || completed != uint64(ok) {
		t.Fatalf("tracer sampled %d and completed %d of %d requests", sampled, completed, ok)
	}
}
