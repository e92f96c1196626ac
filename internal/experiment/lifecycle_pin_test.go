package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"conscale/internal/chaos"
	"conscale/internal/cluster"
	"conscale/internal/des"
	"conscale/internal/rubbos"
	"conscale/internal/scaling"
	"conscale/internal/trace"
	"conscale/internal/workload"
)

// The lifecycle pins cover request-path branches the perfbench reference
// runs never take: the cache tier's per-query hit draw, injected edge
// delay changing mid-run (on every edge, across a dataset change),
// crashes that fail queued and in-flight requests, and traced spans on
// all of those paths. Each pin is the run's timeline CSV followed by a
// full-precision summary and SHA-256 digests of the raw client sample
// stream and the blame table. Regenerate (only if the simulator's
// trajectory legitimately changes) with:
//
//	GEN_LIFECYCLE_PINS=1 go test ./internal/experiment -run 'Pin$'
const (
	cachePin = "testdata/lifecycle_cache_pin.txt"
	chaosPin = "testdata/lifecycle_chaos_pin.txt"
)

// pinDigest renders a run as its pin text.
func pinDigest(t *testing.T, res *RunResult, eng *des.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTimelineCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "# p50=%v p95=%v p99=%v mean_rt=%v goodput=%d error_rate=%v sheds=%d actions=%d events=%d faults=%d\n",
		res.P50, res.P95, res.P99, res.MeanRT, res.Goodput, res.ErrorRate, res.Sheds, len(res.Events), eng.Fired(), len(res.FaultWindows))
	h := sha256.New()
	for _, s := range res.Samples {
		fmt.Fprintf(h, "%v %v %v\n", s.Finish, s.RT, s.OK)
	}
	fmt.Fprintf(&buf, "# samples=%d sha256=%s\n", len(res.Samples), hex.EncodeToString(h.Sum(nil)))
	if res.Tracer != nil {
		h.Reset()
		if err := trace.WriteBlameCSV(h, "pin", res.Tracer.BlameTable()); err != nil {
			t.Fatal(err)
		}
		started, sampled, completed, failed := res.Tracer.Stats()
		fmt.Fprintf(&buf, "# traced started=%d sampled=%d completed=%d failed=%d blame_sha256=%s\n",
			started, sampled, completed, failed, hex.EncodeToString(h.Sum(nil)))
	}
	return buf.Bytes()
}

// checkPin compares a run against its committed pin (or rewrites the pin
// under GEN_LIFECYCLE_PINS).
func checkPin(t *testing.T, path string, got []byte) {
	t.Helper()
	if os.Getenv("GEN_LIFECYCLE_PINS") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("run diverged from the committed pin %s", path)
	}
}

// pinRun executes cfg on an engine the test holds, so the pin can
// include the fired-event count, with telemetry armed so the raw client
// samples are retained (telemetry only reads simulation state).
func pinRun(t *testing.T, cfg RunConfig, ccfg cluster.Config) []byte {
	t.Helper()
	eng := des.New()
	ccfg.Engine = eng
	cfg.Cluster = &ccfg
	cfg.Telemetry = &TelemetryOptions{}
	return pinDigest(t, Run(cfg), eng)
}

// TestCacheTierLifecyclePin runs the read/write mix with the Memcached
// tier on: every browse query draws its hit from the cluster stream
// (writes draw nothing and always reach the DB), the app->cache edge
// jitters for a while, and the cache VM finally crashes, after which
// queries fall back to the direct DB path.
func TestCacheTierLifecyclePin(t *testing.T) {
	cfg := shortRun(scaling.EC2, workload.BigSpike, 3)
	ccfg := cluster.DefaultConfig()
	ccfg.Mix = rubbos.ReadWrite
	ccfg.CacheServers = 1
	cfg.Chaos = chaos.NewSchedule(
		chaos.Jitter(60*des.Second, 30*des.Second, cluster.Cache, 5*des.Millisecond),
		chaos.Jitter(75*des.Second, 30*des.Second, cluster.DB, 20*des.Millisecond),
		chaos.Crash(180*des.Second, cluster.Cache, 0),
	)
	checkPin(t, cachePin, pinRun(t, cfg, ccfg))
}

// TestChaosLifecyclePin runs a fully traced chaos mix: overlapping
// jitter windows on the client->web, web->app and app->db edges, a
// dataset change inside the app->db window (so requests admitted under
// the old workload issue calls after the edge changes), and crashes of
// a DB, an app and a web VM at the load spike. Small web and app thread
// pools make requests queue at the crashed VMs.
func TestChaosLifecyclePin(t *testing.T) {
	cfg := shortRun(scaling.ConScale, workload.BigSpike, 2)
	ccfg := cluster.DefaultConfig()
	ccfg.Web = 2
	ccfg.WebThreads = 150
	ccfg.AppThreads = 20
	cfg.Tracing = &trace.Config{SampleRate: 1}
	cfg.DatasetChangeAt = 70 * des.Second
	cfg.DatasetChangeTo = 1.5
	cfg.Chaos = chaos.NewSchedule(
		chaos.Jitter(30*des.Second, 40*des.Second, cluster.Web, 20*des.Millisecond),
		chaos.Jitter(50*des.Second, 60*des.Second, cluster.App, 30*des.Millisecond),
		chaos.Jitter(40*des.Second, 90*des.Second, cluster.DB, 60*des.Millisecond),
		chaos.Jitter(70*des.Second+10*des.Millisecond, 20*des.Second, cluster.DB, 15*des.Millisecond),
		chaos.Crash(98*des.Second, cluster.DB, 0),
		chaos.Crash(104*des.Second, cluster.App, chaos.PickRandom),
		chaos.Crash(101*des.Second, cluster.Web, 1),
	)
	checkPin(t, chaosPin, pinRun(t, cfg, ccfg))
}
