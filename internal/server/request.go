package server

import (
	"conscale/internal/admission"
	"conscale/internal/des"
	"conscale/internal/trace"
)

// Request is one unit of work travelling through a tier. Its outcome is
// delivered exactly once through Complete; OK is false when the request
// was rejected (accept-queue overflow, crash, admission shed) or failed
// downstream.
//
// Requests a cluster creates come from its RequestPool and go back to it
// once Complete has delivered the outcome, so neither a caller nor a
// service may read a request after completing it.
type Request struct {
	// Phases is the visit program executed while holding a server thread.
	// Programs are shared read-only tables: servers never write to them.
	Phases []Phase
	// Done receives the outcome of a client request. Downstream calls
	// a server issues leave it nil: their completion resumes the calling
	// request instead.
	Done func(ok bool)
	// Span is the request's trace span (nil on unsampled requests — the
	// common case; every span hook is a no-op then).
	Span *trace.Span
	// Tracer, when set on a pooled client request, closes its root Span
	// with Tracer.EndRequest at completion, before Done runs.
	Tracer *trace.Tracer
	// Class is the admission class (browse vs read-write), propagated
	// down the call tree so every tier's policy sees it.
	Class admission.Class
	// Shed is set when this request — or any downstream call it made —
	// was dropped by an admission policy rather than failing for another
	// reason.
	Shed bool

	arrival des.Time
	phase   int
	failed  bool

	srv    *Server   // server running the visit (set on acceptance)
	parent *Request  // calling request of a downstream call; nil on clients
	conn   *ConnPool // connection a downstream call holds until it completes
	lbSlot *int      // balancer in-flight count Complete gives back

	// State of the suspended step: the call waiting for a connection, or
	// the processor burst in service, with what tracing books for it.
	out               *OutCall
	outPool           *ConnPool
	proc              *ProcPool
	burst             des.Time
	t0                des.Time
	waitKind, svcKind trace.SegKind
	via               Service

	pool *RequestPool
	// Continuations bound once per struct, so scheduling them allocates
	// nothing: the next phase step, the end of a processor burst, the
	// asynchronous failure of a rejected request, and the delayed
	// SubmitAfter delivery.
	stepFn, burstFn, failFn, viaFn func()
}

// bind creates the request's continuations on first use. Pooled requests
// are bound when the pool creates them; request literals (tests, tools)
// are bound when they first reach a server or processor pool.
func (r *Request) bind() {
	if r.stepFn != nil {
		return
	}
	r.stepFn = func() { r.srv.step(r) }
	r.burstFn = func() { r.proc.complete(r) }
	r.failFn = func() { r.Complete(false) }
	r.viaFn = func() { r.via.Submit(r) }
}

// CountIn increments *n and makes Complete decrement it again: the
// balancer's per-backend in-flight count for leastconn. A request holds
// one such count, so balancers do not nest.
func (r *Request) CountIn(n *int) {
	*n++
	r.lbSlot = n
}

// SubmitAfter delivers the request to svc after d of simulated transit
// (a network edge in front of the first tier). The request must come
// from a RequestPool, whose engine schedules the delivery.
func (r *Request) SubmitAfter(d des.Time, svc Service) {
	r.via = svc
	r.pool.eng.After(d, r.viaFn)
}

// Complete delivers the outcome; every path a request can end on goes
// through it exactly once. It gives back the balancer count, then either
// resumes the calling request on its server (a downstream call: the
// connection is released and a failure or shed propagates to the caller
// first) or, for a client request, ends the traced root span and calls
// Done. Afterwards a pooled request returns to its free list.
func (r *Request) Complete(ok bool) {
	if r.lbSlot != nil {
		*r.lbSlot--
	}
	if parent := r.parent; parent != nil {
		if r.conn != nil {
			r.conn.Release()
		}
		if !ok {
			parent.failed = true
			if r.Shed {
				parent.Shed = true
			}
		}
		parent.srv.step(parent)
	} else {
		if r.Tracer != nil {
			r.Tracer.EndRequest(r.Span, r.pool.eng.Now(), ok)
		}
		r.Done(ok)
	}
	r.pool.put(r)
}

// afterBurst continues the request once its processor burst ends: the
// span books the run-queue wait and the service, and the visit steps on.
// A request outside any server (a bare pool client) completes instead.
func (r *Request) afterBurst(now des.Time) {
	r.Span.AddProc(r.waitKind, r.svcKind, r.t0, r.burst, now)
	if r.srv == nil {
		r.Complete(true)
		return
	}
	r.srv.step(r)
}

// granted continues the request once its connection pool admits it: the
// pending downstream call is issued. A request outside any server (a bare
// pool client) completes instead.
func (r *Request) granted() {
	if r.srv == nil {
		r.Complete(true)
		return
	}
	r.srv.issue(r)
}

// RequestPool is a free list of requests. Each cluster owns one and uses
// it only from its own engine's goroutine (a striped cell lives on one
// shard), so the list needs no locking. A nil pool hands out fresh,
// unpooled requests.
type RequestPool struct {
	eng  *des.Engine
	free []*Request
}

// NewRequestPool returns an empty free list for requests scheduled on eng.
func NewRequestPool(eng *des.Engine) *RequestPool { return &RequestPool{eng: eng} }

// Get returns a cleared request, reusing a completed one when the list
// has any.
func (p *RequestPool) Get() *Request {
	if p == nil {
		return &Request{}
	}
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return r
	}
	r := &Request{pool: p}
	r.bind()
	return r
}

// put clears a completed request, keeping its bound continuations, and
// returns it to the list.
func (p *RequestPool) put(r *Request) {
	if p == nil {
		return
	}
	*r = Request{pool: p, stepFn: r.stepFn, burstFn: r.burstFn, failFn: r.failFn, viaFn: r.viaFn}
	p.free = append(p.free, r)
}

// requestQueue is a FIFO of requests indexed from a head cursor. Popping
// clears the slot, so a completed (and possibly recycled) request is
// never reachable from the backing array, and the array is compacted
// in place instead of being reallocated as the queue cycles.
type requestQueue struct {
	buf  []*Request
	head int
}

func (q *requestQueue) len() int { return len(q.buf) - q.head }

func (q *requestQueue) push(r *Request) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, r)
}

func (q *requestQueue) pop() *Request {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return r
}
