package cluster

import (
	"conscale/internal/admission"
	"conscale/internal/des"
	"conscale/internal/rubbos"
	"conscale/internal/server"
)

// Visit programs. Every servlet's per-tier phase lists are built once per
// workload and shared read-only by all of its requests, so the request
// path allocates none. What a program encodes is read at the same moment
// as when programs were built per request:
//
//   - the web visit and the web->app edge delay at submit — rebuilding
//     the web slices on SetNetDelay(App) leaves submitted requests on the
//     program they started with;
//   - the app visit, the app->db and app->cache edge delays and the
//     per-query cache hits when the web tier issues its call — the web
//     visit's call phase reaches the servlet's appEntry through a stable
//     pointer, so its rebuilt slices apply to calls issued afterwards;
//   - the DB and cache visits never change.
//
// SetDatasetScale and SetMix build a new program set for the new
// workload. Requests submitted earlier keep the old set's demands, so
// every set ever built is kept for edge-delay rebuilds (one per workload
// change).

// cacheProgram is one Memcached lookup: sub-millisecond CPU plus network
// dwell.
var cacheProgram = []server.Phase{
	{Kind: server.PhaseSleep, Duration: 0.0002},
	{Kind: server.PhaseCPU, Duration: 0.00006},
}

// programSet holds the visit programs of one workload's servlets, in
// Servlets order.
type programSet struct {
	progs []program
}

// program is one servlet's visit programs. Its address is stable (the
// set's slice is never resized), so the call targets can point into it.
type program struct {
	sv    *rubbos.Servlet
	class admission.Class
	web   []server.Phase // web visit: CPU, web->app edge dwell, app call
	call  server.OutCall // the web->app call, targeting app
	app   appEntry
	db    server.OutCall // one app->db query, through the server's pool
}

// appEntry is the target of a servlet's web->app call. It fixes the app
// visit program when the call arrives and forwards to the app balancer.
type appEntry struct {
	c      *Cluster
	sv     *rubbos.Servlet
	direct []server.Phase   // no cache tier: every query goes to the DB
	cached [][]server.Phase // cache tier: indexed by the per-query hit mask
}

// Submit implements server.Service. With a cache tier each browse query
// draws its hit from the cluster stream here, in query order — the
// point in the stream where the draws have always been.
func (a *appEntry) Submit(req *server.Request) {
	req.Phases = a.program()
	a.c.appLB.Submit(req)
}

func (a *appEntry) program() []server.Phase {
	c := a.c
	if c.cacheLB.Len() == 0 {
		return a.direct
	}
	hits := 0
	if !a.sv.Write { // writes must reach the DB
		for i := 0; i < a.sv.Queries; i++ {
			if c.rnd.Float64() < c.cfg.CacheHitRatio {
				hits |= 1 << i
			}
		}
	}
	return a.cached[hits]
}

// newPrograms builds and installs the program set of a workload.
func (c *Cluster) newPrograms(wl *rubbos.Workload) {
	set := &programSet{progs: make([]program, len(wl.Servlets))}
	for i := range wl.Servlets {
		sv := &wl.Servlets[i]
		p := &set.progs[i]
		p.sv = sv
		p.class = admission.ClassBrowse
		if sv.Write {
			p.class = admission.ClassReadWrite
		}
		p.app = appEntry{c: c, sv: sv}
		p.call = server.OutCall{Target: &p.app}
		p.db = server.OutCall{Target: c.dbLB, UseServerPool: true, Phases: dbProgram(sv)}
		c.buildWeb(p)
		c.buildApp(p)
	}
	c.programs = set
	c.programSets = append(c.programSets, set)
}

// rebuildApps rebuilds the app visits of every program set.
func (c *Cluster) rebuildApps() {
	for _, set := range c.programSets {
		for i := range set.progs {
			c.buildApp(&set.progs[i])
		}
	}
}

// buildWeb builds the web tier visit: static processing then the
// synchronous call into the app tier. Injected edge delay dwells on the
// calling thread, like every network wait in the thread-based RPC model.
func (c *Cluster) buildWeb(p *program) {
	web := []server.Phase{{Kind: server.PhaseCPU, Duration: des.Time(p.sv.WebCPU)}}
	if d := c.netDelay[App]; d > 0 {
		web = append(web, server.Phase{Kind: server.PhaseNet, Duration: d})
	}
	p.web = append(web, server.Phase{Kind: server.PhaseCall, Call: &p.call})
}

// buildApp builds the app visit variants: the direct one, and once the
// cluster has had a cache VM, one per cache-hit mask (2^Queries for
// browse servlets; writes never hit).
func (c *Cluster) buildApp(p *program) {
	p.app.direct = c.appProgram(p, false, 0)
	p.app.cached = nil
	if c.counter[Cache] == 0 {
		return
	}
	n := 1
	if !p.sv.Write {
		n = 1 << p.sv.Queries
	}
	p.app.cached = make([][]server.Phase, n)
	for hits := range p.app.cached {
		p.app.cached[hits] = c.appProgram(p, true, hits)
	}
}

// appProgram lays out one app tier visit: business-logic CPU slices
// interleaved with the servlet's DB queries. Without a cache a query is
// a synchronous DB call gated by the server's connection pool. With a
// cache it first looks up Memcached; only misses (bit clear in hits)
// continue to the DB call.
func (c *Cluster) appProgram(p *program, cache bool, hits int) []server.Phase {
	sv := p.sv
	q := sv.Queries
	slice := des.Time(sv.AppCPU / float64(q+1))
	halfWait := des.Time(sv.AppWait / 2)
	phases := make([]server.Phase, 0, 5*q+3)
	phases = append(phases,
		server.Phase{Kind: server.PhaseSleep, Duration: halfWait},
		server.Phase{Kind: server.PhaseCPU, Duration: slice},
	)
	for i := 0; i < q; i++ {
		if cache {
			if d := c.netDelay[Cache]; d > 0 {
				phases = append(phases, server.Phase{Kind: server.PhaseNet, Duration: d})
			}
			phases = append(phases, server.Phase{Kind: server.PhaseCall, Call: &c.lookup})
		}
		if !cache || hits&(1<<i) == 0 {
			if d := c.netDelay[DB]; d > 0 {
				phases = append(phases, server.Phase{Kind: server.PhaseNet, Duration: d})
			}
			phases = append(phases, server.Phase{Kind: server.PhaseCall, Call: &p.db})
		}
		phases = append(phases, server.Phase{Kind: server.PhaseCPU, Duration: slice})
	}
	return append(phases, server.Phase{Kind: server.PhaseSleep, Duration: halfWait})
}

// dbProgram is one DB query visit: protocol dwell around the CPU work,
// plus disk I/O for write/scan queries.
func dbProgram(sv *rubbos.Servlet) []server.Phase {
	halfWait := des.Time(sv.QueryWait / 2)
	phases := []server.Phase{
		{Kind: server.PhaseSleep, Duration: halfWait},
		{Kind: server.PhaseCPU, Duration: des.Time(sv.QueryCPU)},
	}
	if sv.QueryDisk > 0 {
		phases = append(phases, server.Phase{Kind: server.PhaseDisk, Duration: des.Time(sv.QueryDisk)})
	}
	return append(phases, server.Phase{Kind: server.PhaseSleep, Duration: halfWait})
}
