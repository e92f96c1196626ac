package server

import (
	"fmt"
	"math"

	"conscale/internal/admission"
	"conscale/internal/des"
	"conscale/internal/metrics"
	"conscale/internal/rng"
	"conscale/internal/trace"
)

func mathPow(a, b float64) float64 { return math.Pow(a, b) }

// Service accepts requests. Both *Server and the load balancer satisfy it,
// so any tier can sit behind a balancer transparently.
type Service interface {
	// Submit delivers a request. The service must eventually call
	// req.Complete exactly once, and must not touch req afterwards.
	Submit(req *Request)
}

// PhaseKind enumerates the step types of a visit program.
type PhaseKind int

// Phase kinds: CPU burst, disk burst, pure dwell (network/protocol wait
// that holds the thread but no hardware resource), a synchronous
// downstream call, and a network-edge transit. PhaseNet behaves exactly
// like PhaseSleep (a thread-holding dwell, jittered the same way); the
// distinct kind only changes how tracing classifies the time.
const (
	PhaseCPU PhaseKind = iota
	PhaseDisk
	PhaseSleep
	PhaseCall
	PhaseNet
)

// Phase is one step of a visit program.
type Phase struct {
	Kind     PhaseKind
	Duration des.Time // CPU/Disk/Sleep service demand (seconds)
	Call     *OutCall // for PhaseCall
}

// OutCall describes a synchronous downstream call: the calling thread is
// held for its whole duration (thread-based RPC). If Pool is non-nil a
// connection is acquired first — this is how the app tier's DB connection
// pool throttles DB-tier concurrency. UseServerPool instead acquires from
// the executing server's own outbound pool (set with SetCallPool), which is
// how upstream tiers can build call phases without knowing which backend
// the balancer will pick.
type OutCall struct {
	Target        Service
	Pool          *ConnPool
	UseServerPool bool
	// Phases is the downstream visit program, read when the call is
	// issued. A Target may still replace it on the request it receives
	// (the cluster's app entry picks a cache-hit variant that way).
	Phases []Phase
}

// Config holds a server's static and soft-resource configuration.
type Config struct {
	Name        string
	Cores       int
	DiskChans   int // 0 means no disk
	ThreadLimit int // soft resource: max concurrently processing requests
	AcceptQueue int // pending slots beyond the thread pool; overflow rejects
	Overhead    Overhead
	DemandCV    float64  // lognormal sigma for per-burst demand jitter (0 = deterministic)
	Window      des.Time // fine-grained measurement window (0 = 50 ms)
	UtilWindow  des.Time // CPU utilization window (0 = 1 s)
	// Requests is the free list downstream calls are drawn from (nil =
	// allocate every call; a cluster shares one list across its VMs).
	Requests *RequestPool
}

// Server is one component server (VM) of the n-tier system.
type Server struct {
	eng  *des.Engine
	rnd  *rng.Source
	name string

	cpu  *ProcPool
	disk *ProcPool

	threadLimit int
	active      int
	accept      requestQueue
	acceptCap   int
	reqs        *RequestPool

	overhead Overhead
	demandCV float64

	// cpuSlowdown is the capacity-degradation factor (1 = nominal): noisy
	// neighbors on the VM's physical host stealing cycles make every CPU
	// burst take this many times its nominal duration.
	cpuSlowdown float64

	rec *metrics.Recorder
	tel Telemetry

	// adm is the admission policy guarding the accept queue (nil = admit
	// everything on the untouched pre-admission code path). admMeter and
	// onShed are passive observers of its decisions; sheds counts drops
	// per class unconditionally (plain counters, read at scrape time).
	adm      admission.Policy
	admMeter *admission.Meter
	onShed   func(now des.Time, class admission.Class)
	sheds    [admission.NumClasses]uint64

	callPool *ConnPool // outbound pool for UseServerPool calls (may be nil)

	draining bool // true once the VM is being retired; rejects new work
	killed   bool // true after a crash; in-flight work fails at phase edges
}

// New creates a server on the given engine. rnd must be a dedicated stream
// (use rng.Split) so per-server jitter is reproducible.
func New(eng *des.Engine, rnd *rng.Source, cfg Config) *Server {
	if cfg.Cores <= 0 {
		panic("server: config needs at least one core")
	}
	if cfg.ThreadLimit <= 0 {
		panic("server: config needs a positive thread limit")
	}
	if cfg.AcceptQueue < 0 {
		panic("server: negative accept queue")
	}
	window := cfg.Window
	if window == 0 {
		window = metrics.DefaultWindow
	}
	utilWindow := cfg.UtilWindow
	if utilWindow == 0 {
		utilWindow = des.Second
	}
	s := &Server{
		eng:         eng,
		rnd:         rnd,
		name:        cfg.Name,
		cpu:         NewProcPool(eng, cfg.Cores, utilWindow),
		threadLimit: cfg.ThreadLimit,
		acceptCap:   cfg.AcceptQueue,
		overhead:    cfg.Overhead,
		demandCV:    cfg.DemandCV,
		cpuSlowdown: 1,
		rec:         metrics.NewRecorder(window),
		reqs:        cfg.Requests,
	}
	if cfg.DiskChans > 0 {
		s.disk = NewProcPool(eng, cfg.DiskChans, utilWindow)
	}
	return s
}

// Name returns the server's identity (e.g. "mysql1").
func (s *Server) Name() string { return s.name }

// Cores returns the VM's current core count.
func (s *Server) Cores() int { return s.cpu.Channels() }

// SetCores vertically scales the VM.
func (s *Server) SetCores(n int) { s.cpu.SetChannels(n) }

// SetCPUSlowdown sets the capacity-degradation factor: CPU bursts take
// f times their nominal duration while it is in effect — the noisy-neighbor
// interference a VM suffers when co-located tenants contend for its host's
// cores. f must be positive; 1 restores nominal capacity. The factor
// applies to bursts started after the call; bursts already on a core
// finish at their old speed (the hypervisor does not re-plan running
// quanta retroactively).
func (s *Server) SetCPUSlowdown(f float64) {
	if f <= 0 {
		panic("server: non-positive CPU slowdown")
	}
	s.cpuSlowdown = f
}

// CPUSlowdown returns the current capacity-degradation factor (1 = nominal).
func (s *Server) CPUSlowdown() float64 { return s.cpuSlowdown }

// ThreadLimit returns the soft-resource thread pool size.
func (s *Server) ThreadLimit() int { return s.threadLimit }

// SetThreadLimit adjusts the thread pool at runtime (the actuator path).
// Growth admits queued requests immediately.
func (s *Server) SetThreadLimit(n int) {
	if n <= 0 {
		panic("server: non-positive thread limit")
	}
	s.threadLimit = n
	s.admit()
}

// Active returns the number of requests currently holding threads.
func (s *Server) Active() int { return s.active }

// QueueLen returns the accept-queue length.
func (s *Server) QueueLen() int { return s.accept.len() }

// CPUUtilization returns the running 1-second CPU utilization (0..1).
func (s *Server) CPUUtilization() float64 { return s.cpu.Utilization() }

// DiskUtilization returns the running 1-second disk utilization, 0 when
// the VM has no disk model.
func (s *Server) DiskUtilization() float64 {
	if s.disk == nil {
		return 0
	}
	return s.disk.Utilization()
}

// FlushCPU drains completed CPU-utilization windows.
func (s *Server) FlushCPU() []metrics.TWSample { return s.cpu.FlushUtil() }

// FlushFine drains completed fine-grained request windows.
func (s *Server) FlushFine() []metrics.WindowSample { return s.rec.Flush(s.eng.Now()) }

// Recorder exposes the request recorder (tests, diagnostics).
func (s *Server) Recorder() *metrics.Recorder { return s.rec }

// SetCallPool installs the server's outbound connection pool, used by
// phases whose OutCall sets UseServerPool (the Tomcat DB connection pool).
func (s *Server) SetCallPool(p *ConnPool) { s.callPool = p }

// CallPool returns the outbound connection pool (nil if unset).
func (s *Server) CallPool() *ConnPool { return s.callPool }

// SetDraining marks the VM as retiring: new submissions are rejected while
// in-flight requests finish (the "slow turn off" half of scaling).
func (s *Server) SetDraining(d bool) { s.draining = d }

// Draining reports whether the VM is retiring.
func (s *Server) Draining() bool { return s.draining }

// Kill crashes the VM: new submissions are rejected, queued requests fail
// immediately, and in-flight requests fail at their next phase boundary
// (the "connection reset" a client of a crashed server observes).
func (s *Server) Kill() {
	s.draining = true
	s.killed = true
	now := s.eng.Now()
	for s.accept.len() > 0 {
		req := s.accept.pop()
		s.rec.Reject(now)
		s.tel.Rejects.Inc()
		req.Span.Finish(now, trace.OutcomeFailed)
		s.eng.After(0, req.failFn)
	}
}

// Killed reports whether the VM has crashed.
func (s *Server) Killed() bool { return s.killed }

// SetAdmission installs (or with nil removes) the admission policy
// guarding the accept queue. Policies are stateful: every server needs
// its own instance.
func (s *Server) SetAdmission(p admission.Policy) { s.adm = p }

// Admission returns the installed admission policy (nil when off).
func (s *Server) Admission() admission.Policy { return s.adm }

// SetShedMeter installs a drop-rate meter fed with every admission
// decision (offered and shed) while a policy is armed.
func (s *Server) SetShedMeter(m *admission.Meter) { s.admMeter = m }

// SetShedObserver installs a read-only callback invoked on every shed —
// the forensics flight recorder's tap.
func (s *Server) SetShedObserver(fn func(now des.Time, class admission.Class)) { s.onShed = fn }

// ShedCount returns the number of requests the admission policy dropped
// in the given class.
func (s *Server) ShedCount(c admission.Class) uint64 { return s.sheds[c] }

// ShedTotal returns the total admission drops across classes.
func (s *Server) ShedTotal() uint64 {
	var t uint64
	for _, n := range s.sheds {
		t += n
	}
	return t
}

// Submit implements Service.
func (s *Server) Submit(req *Request) {
	req.bind()
	if s.draining || s.accept.len() >= s.acceptCap {
		// Reject before entering the request log's in-flight accounting;
		// the error still counts in this window.
		s.rec.Reject(s.eng.Now())
		s.tel.Rejects.Inc()
		req.Span.Finish(s.eng.Now(), trace.OutcomeRejected)
		// Deliver the failure asynchronously so callers never observe
		// reentrant completion.
		s.eng.After(0, req.failFn)
		return
	}
	if s.adm != nil {
		// Admission decision point: accept-queue entry, before pool
		// admit. A shed fails the request immediately without consuming
		// any server resource; the meter sees every decision.
		now := s.eng.Now()
		ok := s.adm.Admit(now, req.Class, s.accept.len())
		s.admMeter.Observe(now, req.Class, !ok)
		if !ok {
			s.sheds[req.Class]++
			s.rec.Reject(now)
			s.tel.Rejects.Inc()
			s.tel.Sheds[req.Class].Inc()
			req.Shed = true
			req.Span.Finish(now, trace.OutcomeShed)
			if s.onShed != nil {
				s.onShed(now, req.Class)
			}
			s.eng.After(0, req.failFn)
			return
		}
	}
	req.srv = s
	req.arrival = s.eng.Now()
	req.Span.EnterServer(s.name, req.arrival)
	s.accept.push(req)
	s.admit()
}

func (s *Server) admit() {
	for s.active < s.threadLimit && s.accept.len() > 0 {
		req := s.accept.pop()
		s.active++
		// The request log counts *processing* concurrency (requests
		// holding threads), matching the paper's SCT tuples; accept-queue
		// time still counts toward the recorded response time because RT
		// is measured from submission.
		now := s.eng.Now()
		if s.adm != nil {
			// Feed the policy the accept-queue sojourn this request
			// actually experienced — CoDel's standing-queue signal.
			s.adm.ObserveDequeue(now, now-req.arrival)
		}
		s.rec.Arrive(now)
		req.Span.Admitted(now)
		s.step(req)
	}
}

// step advances a request to its next phase; when phases are exhausted the
// request completes and its thread is released. Every suspension resumes
// here through a continuation bound on the request: the burst end of a
// CPU or disk demand, the end of a dwell, or the completion of a call.
func (s *Server) step(req *Request) {
	if s.killed {
		req.failed = true
	}
	if req.failed || req.phase >= len(req.Phases) {
		s.finish(req)
		return
	}
	ph := req.Phases[req.phase]
	req.phase++
	switch ph.Kind {
	case PhaseCPU:
		d := s.jitter(ph.Duration) * des.Time(s.overhead.Factor(s.active, s.cpu.Channels())*s.cpuSlowdown)
		req.t0 = s.eng.Now()
		req.waitKind, req.svcKind = trace.SegCPUWait, trace.SegCPU
		s.cpu.Demand(d, req)
	case PhaseDisk:
		if s.disk == nil {
			panic(fmt.Sprintf("server %s: disk phase without a disk", s.name))
		}
		d := s.jitter(ph.Duration)
		req.t0 = s.eng.Now()
		req.waitKind, req.svcKind = trace.SegDiskWait, trace.SegDisk
		s.disk.Demand(d, req)
	case PhaseSleep, PhaseNet:
		d := s.jitter(ph.Duration)
		if sp := req.Span; sp != nil {
			kind := trace.SegDwell
			if ph.Kind == PhaseNet {
				kind = trace.SegNet
			}
			sp.AddSeg(kind, s.eng.Now(), s.eng.Now()+d)
		}
		s.eng.After(d, req.stepFn)
	case PhaseCall:
		s.call(req, ph.Call)
	default:
		panic("server: unknown phase kind")
	}
}

// call starts a synchronous downstream call, first waiting for a
// connection when the call is pooled.
func (s *Server) call(req *Request, out *OutCall) {
	pool := out.Pool
	if out.UseServerPool {
		pool = s.callPool
	}
	req.out = out
	req.outPool = pool
	req.t0 = s.eng.Now()
	if pool != nil {
		pool.Acquire(req)
		return
	}
	s.issue(req)
}

// issue sends req's pending call downstream as a pooled child request,
// whose completion releases the connection and resumes req here.
func (s *Server) issue(req *Request) {
	out, pool := req.out, req.outPool
	var child *trace.Span
	if sp := req.Span; sp != nil {
		now := s.eng.Now()
		if pool != nil {
			sp.AddSeg(trace.SegPoolWait, req.t0, now)
		}
		child = sp.StartChild(now)
	}
	down := s.reqs.Get()
	down.Phases = out.Phases
	down.Span = child
	down.Class = req.Class
	down.parent = req
	down.conn = pool
	out.Target.Submit(down)
}

func (s *Server) finish(req *Request) {
	s.active--
	now := s.eng.Now()
	if req.failed {
		s.rec.Drop(now)
		s.tel.Drops.Inc()
		req.Span.Finish(now, trace.OutcomeFailed)
	} else {
		s.rec.Depart(now, float64(now-req.arrival))
		s.tel.RT.Observe(float64(now - req.arrival))
		req.Span.Finish(now, trace.OutcomeOK)
	}
	req.Complete(!req.failed) // req may be recycled from here on
	s.admit()
}

// jitter applies lognormal demand variation with the configured CV.
func (s *Server) jitter(d des.Time) des.Time {
	if s.demandCV <= 0 || d <= 0 {
		return d
	}
	return des.Time(s.rnd.LogNormal(float64(d), s.demandCV))
}
