package lb

import (
	"testing"

	"conscale/internal/server"
)

// fakeService records submissions and completes them on demand.
type fakeService struct {
	name     string
	pending  []*server.Request
	received int
}

func (f *fakeService) Submit(req *server.Request) {
	f.received++
	f.pending = append(f.pending, req)
}

func (f *fakeService) completeOne(ok bool) {
	req := f.pending[0]
	f.pending = f.pending[1:]
	req.Complete(ok)
}

func newReq(results *[]bool) *server.Request {
	return &server.Request{Done: func(ok bool) { *results = append(*results, ok) }}
}

func TestRoundRobinCycles(t *testing.T) {
	b := New("web-lb", RoundRobin)
	a, c := &fakeService{name: "a"}, &fakeService{name: "c"}
	b.Add("a", a)
	b.Add("c", c)
	var results []bool
	for i := 0; i < 6; i++ {
		b.Submit(newReq(&results))
	}
	if a.received != 3 || c.received != 3 {
		t.Fatalf("round robin uneven: %d/%d", a.received, c.received)
	}
}

func TestLeastConnPrefersIdle(t *testing.T) {
	b := New("db-lb", LeastConn)
	busy, idle := &fakeService{name: "busy"}, &fakeService{name: "idle"}
	b.Add("busy", busy)
	b.Add("idle", idle)
	var results []bool
	// Four submissions with no completions spread 2/2.
	for i := 0; i < 4; i++ {
		b.Submit(newReq(&results))
	}
	if b.InFlight("busy") != 2 || b.InFlight("idle") != 2 {
		t.Fatalf("spread = %d/%d, want 2/2", b.InFlight("busy"), b.InFlight("idle"))
	}
	// Drain "idle": its two outstanding requests complete.
	idle.completeOne(true)
	idle.completeOne(true)
	// The next two submissions must both go to the now-idle backend.
	b.Submit(newReq(&results))
	b.Submit(newReq(&results))
	if idle.received != 4 || busy.received != 2 {
		t.Fatalf("leastconn picked busier backend: idle=%d busy=%d", idle.received, busy.received)
	}
}

func TestLeastConnBalancesEvenly(t *testing.T) {
	b := New("lb", LeastConn)
	s1, s2 := &fakeService{}, &fakeService{}
	b.Add("s1", s1)
	b.Add("s2", s2)
	var results []bool
	for i := 0; i < 10; i++ {
		b.Submit(newReq(&results)) // nothing completes: in-flight grows
	}
	if s1.received != 5 || s2.received != 5 {
		t.Fatalf("leastconn uneven without completions: %d/%d", s1.received, s2.received)
	}
}

func TestInFlightDecrementsOnDone(t *testing.T) {
	b := New("lb", LeastConn)
	s := &fakeService{}
	b.Add("s", s)
	var results []bool
	b.Submit(newReq(&results))
	if b.InFlight("s") != 1 {
		t.Fatalf("InFlight = %d", b.InFlight("s"))
	}
	s.completeOne(true)
	if b.InFlight("s") != 0 {
		t.Fatalf("InFlight after done = %d", b.InFlight("s"))
	}
	if len(results) != 1 || !results[0] {
		t.Fatalf("completion not propagated: %v", results)
	}
}

func TestFailurePropagates(t *testing.T) {
	b := New("lb", RoundRobin)
	s := &fakeService{}
	b.Add("s", s)
	var results []bool
	b.Submit(newReq(&results))
	s.completeOne(false)
	if len(results) != 1 || results[0] {
		t.Fatalf("failure not propagated: %v", results)
	}
}

func TestNoBackendsRejects(t *testing.T) {
	b := New("lb", RoundRobin)
	var results []bool
	b.Submit(newReq(&results))
	if len(results) != 1 || results[0] {
		t.Fatalf("empty balancer should fail the request: %v", results)
	}
	if _, rejected := b.Stats(); rejected != 1 {
		t.Fatalf("rejected count = %d", rejected)
	}
}

func TestRemoveStopsDispatch(t *testing.T) {
	b := New("lb", RoundRobin)
	s1, s2 := &fakeService{}, &fakeService{}
	b.Add("s1", s1)
	b.Add("s2", s2)
	if !b.Remove("s1") {
		t.Fatal("Remove returned false")
	}
	if b.Remove("s1") {
		t.Fatal("second Remove returned true")
	}
	var results []bool
	for i := 0; i < 4; i++ {
		b.Submit(newReq(&results))
	}
	if s1.received != 0 || s2.received != 4 {
		t.Fatalf("dispatch after remove: %d/%d", s1.received, s2.received)
	}
}

func TestRemoveMidCycleKeepsRotation(t *testing.T) {
	b := New("lb", RoundRobin)
	svcs := map[string]*fakeService{}
	for _, n := range []string{"a", "b", "c"} {
		s := &fakeService{name: n}
		svcs[n] = s
		b.Add(n, s)
	}
	var results []bool
	b.Submit(newReq(&results)) // goes to a; cursor -> b
	b.Remove("b")
	for i := 0; i < 4; i++ {
		b.Submit(newReq(&results))
	}
	if svcs["b"].received != 0 {
		t.Fatal("removed backend received traffic")
	}
	if svcs["a"].received+svcs["c"].received != 5 {
		t.Fatalf("lost requests: a=%d c=%d", svcs["a"].received, svcs["c"].received)
	}
}

func TestDuplicateAddPanics(t *testing.T) {
	b := New("lb", RoundRobin)
	b.Add("x", &fakeService{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate Add")
		}
	}()
	b.Add("x", &fakeService{})
}

func TestBackendsList(t *testing.T) {
	b := New("lb", RoundRobin)
	b.Add("a", &fakeService{})
	b.Add("b", &fakeService{})
	got := b.Backends()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Backends = %v", got)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.InFlight("zzz") != -1 {
		t.Fatal("unknown backend InFlight should be -1")
	}
}

func TestPolicyString(t *testing.T) {
	if RoundRobin.String() != "roundrobin" || LeastConn.String() != "leastconn" {
		t.Fatal("Policy.String wrong")
	}
	if Policy(7).String() == "" {
		t.Fatal("unknown policy should format")
	}
}

func TestStatsTotal(t *testing.T) {
	b := New("lb", RoundRobin)
	b.Add("s", &fakeService{})
	var results []bool
	for i := 0; i < 3; i++ {
		b.Submit(newReq(&results))
	}
	total, rejected := b.Stats()
	if total != 3 || rejected != 0 {
		t.Fatalf("Stats = %d/%d", total, rejected)
	}
}
