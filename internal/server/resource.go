// Package server models a component server (one VM) of an n-tier
// application: a bounded thread pool admitting requests, FCFS scheduling of
// CPU bursts over the VM's cores, an optional disk, synchronous downstream
// calls that hold the caller's thread (the paper's thread-based RPC), and a
// multithreading-overhead model that inflates CPU demand at high
// concurrency. Together these produce the three-stage
// concurrency-throughput curve of the SCT model (paper Section III-A).
package server

import (
	"conscale/internal/des"
	"conscale/internal/metrics"
)

// ProcPool is a multi-server FCFS resource: n identical channels serving
// bursts to completion in submission order. It models both the VM's vCPU
// set (n = cores) and its disk (n = I/O channels).
type ProcPool struct {
	eng      *des.Engine
	channels int
	busy     int
	queue    requestQueue
	util     *metrics.TimeWeighted

	totalBusy float64 // accumulated busy-channel-seconds (for tests)
}

// NewProcPool returns a pool with the given number of channels, reporting
// utilization into a window of utilWindow (1 s for the controllers).
func NewProcPool(eng *des.Engine, channels int, utilWindow des.Time) *ProcPool {
	if channels <= 0 {
		panic("server: non-positive channel count")
	}
	return &ProcPool{
		eng:      eng,
		channels: channels,
		util:     metrics.NewTimeWeighted(utilWindow),
	}
}

// Channels returns the current channel count.
func (p *ProcPool) Channels() int { return p.channels }

// SetChannels changes the channel count at runtime (vertical scaling).
// Growth dispatches queued bursts immediately; shrinkage lets running
// bursts finish (busy may exceed channels transiently).
func (p *ProcPool) SetChannels(n int) {
	if n <= 0 {
		panic("server: non-positive channel count")
	}
	p.channels = n
	p.dispatch()
	p.meter()
}

// Demand queues a burst of d seconds of service for req. When the burst
// completes, req steps to its next phase on its server — or, for a
// request outside any server, completes OK. A request has at most one
// burst outstanding. Zero-duration bursts complete on the next event.
func (p *ProcPool) Demand(d des.Time, req *Request) {
	if d < 0 {
		panic("server: negative demand")
	}
	req.bind()
	req.proc = p
	req.burst = d
	p.queue.push(req)
	p.dispatch()
}

func (p *ProcPool) dispatch() {
	for p.busy < p.channels && p.queue.len() > 0 {
		req := p.queue.pop()
		p.busy++
		p.meter()
		p.totalBusy += float64(req.burst)
		p.eng.After(req.burst, req.burstFn)
	}
}

// complete ends req's burst: the channel frees, req continues, and the
// next queued burst starts.
func (p *ProcPool) complete(req *Request) {
	p.busy--
	p.meter()
	req.afterBurst(p.eng.Now())
	p.dispatch()
}

func (p *ProcPool) meter() {
	u := float64(p.busy) / float64(p.channels)
	if u > 1 {
		u = 1
	}
	p.util.Set(p.eng.Now(), u)
}

// Utilization returns the mean utilization (0..1) of the current window up
// to now — the 1-second CPU signal the scaling controllers threshold on.
func (p *ProcPool) Utilization() float64 { return p.util.WindowMean(p.eng.Now()) }

// FlushUtil drains completed utilization windows up to now.
func (p *ProcPool) FlushUtil() []metrics.TWSample { return p.util.Flush(p.eng.Now()) }

// QueueLen returns the number of waiting bursts (diagnostics).
func (p *ProcPool) QueueLen() int { return p.queue.len() }

// Busy returns the number of busy channels.
func (p *ProcPool) Busy() int { return p.busy }

// TotalBusySeconds returns accumulated busy channel-seconds.
func (p *ProcPool) TotalBusySeconds() float64 { return p.totalBusy }

// ConnPool is a counted semaphore with FIFO waiters: the app server's DB
// connection pool, whose size caps the concurrency the app tier can impose
// on the downstream DB tier (the paper's #DBconnections soft resource).
type ConnPool struct {
	limit   int
	inUse   int
	waiters requestQueue
}

// NewConnPool returns a pool with the given size.
func NewConnPool(limit int) *ConnPool {
	if limit <= 0 {
		panic("server: non-positive pool limit")
	}
	return &ConnPool{limit: limit}
}

// Limit returns the current pool size.
func (c *ConnPool) Limit() int { return c.limit }

// InUse returns the number of held connections.
func (c *ConnPool) InUse() int { return c.inUse }

// Waiting returns the number of queued acquirers.
func (c *ConnPool) Waiting() int { return c.waiters.len() }

// SetLimit resizes the pool at runtime. Growth admits waiters immediately;
// shrinkage takes effect as connections are released.
func (c *ConnPool) SetLimit(n int) {
	if n <= 0 {
		panic("server: non-positive pool limit")
	}
	c.limit = n
	c.admit()
}

// Acquire grants a connection to req, immediately if one is free,
// otherwise when a holder releases. On the grant req issues its pending
// downstream call, whose completion releases the connection; a request
// outside any server completes OK instead and must Release itself.
func (c *ConnPool) Acquire(req *Request) {
	c.waiters.push(req)
	c.admit()
}

// Release returns a connection to the pool.
func (c *ConnPool) Release() {
	if c.inUse <= 0 {
		panic("server: Release without Acquire")
	}
	c.inUse--
	c.admit()
}

func (c *ConnPool) admit() {
	for c.inUse < c.limit && c.waiters.len() > 0 {
		req := c.waiters.pop()
		c.inUse++
		req.granted()
	}
}

// Overhead is the multithreading-overhead model: the factor by which a
// server's CPU demand is inflated as a function of its active thread count.
// It models the lock contention, cache-coherence crosstalk, context
// switching, and GC effects the paper cites as the cause of the descending
// stage ([10], [19]-[21]).
type Overhead struct {
	// Alpha scales the penalty per excess thread.
	Alpha float64
	// KneePerCore is the active-thread count per core below which the
	// penalty is zero.
	KneePerCore float64
	// Power is the super-linear exponent of the penalty.
	Power float64
}

// DefaultOverhead returns the model used across the reproduction: no
// penalty below 22 threads/core, then a gently super-linear climb that
// roughly halves throughput by ~60 excess threads — matching the decline
// slopes of the paper's Fig. 6a/7 scatter plots.
func DefaultOverhead() Overhead {
	return Overhead{Alpha: 0.015, KneePerCore: 22, Power: 1.15}
}

// Factor returns the CPU inflation (>= 1) at the given active thread count
// and core count.
func (o Overhead) Factor(active, cores int) float64 {
	knee := o.KneePerCore * float64(cores)
	excess := float64(active) - knee
	if excess <= 0 || o.Alpha <= 0 {
		return 1
	}
	return 1 + o.Alpha*pow(excess, o.Power)
}

// pow is a small positive-base power; math.Pow is avoided in the hot path
// only when the exponent is 1.
func pow(base, exp float64) float64 {
	if exp == 1 {
		return base
	}
	return mathPow(base, exp)
}
