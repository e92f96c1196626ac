package experiment

import (
	"bytes"
	"testing"

	"conscale/internal/des"
	"conscale/internal/scaling"
)

// smallScaleConfig is a fast sweep point for tests: 4 cells, 3000
// clients, 40 simulated seconds.
func smallScaleConfig(mode scaling.Mode, parallel bool) ScaleConfig {
	cfg := DefaultScaleConfig(mode, 3000)
	cfg.Cells = 4
	cfg.Duration = 40 * des.Second
	cfg.WarmupSkip = 10 * des.Second
	cfg.Parallel = parallel
	return cfg
}

func TestRunScaleSmoke(t *testing.T) {
	res := RunScale(smallScaleConfig(scaling.ConScale, false))
	if res.Requests == 0 || res.Goodput == 0 {
		t.Fatalf("no traffic: requests=%d goodput=%d", res.Requests, res.Goodput)
	}
	if res.ErrorRate > 0.05 {
		t.Fatalf("error rate %.3f too high for an underloaded fleet", res.ErrorRate)
	}
	if res.P99 <= 0 || res.P99 < res.P50 {
		t.Fatalf("implausible tails: p50=%.4fs p99=%.4fs", res.P50, res.P99)
	}
	// Every request crosses the network edge twice; the floor on any RT
	// is 2×EdgeDelay = 40 ms.
	if res.P50 < 0.040 {
		t.Fatalf("p50=%.4fs below the 2×edge-delay floor", res.P50)
	}
	if res.Events == 0 || res.WallSec <= 0 || res.EventsPerSec <= 0 {
		t.Fatalf("missing execution metrics: events=%d wall=%.3f rate=%.0f", res.Events, res.WallSec, res.EventsPerSec)
	}
	if res.VMs < 3*res.Cells {
		t.Fatalf("fleet has %d VMs, want at least 3 per cell", res.VMs)
	}
	if res.PeakHeapBytes == 0 {
		t.Fatal("peak heap was not sampled")
	}
	if len(res.Timeline) < 35 {
		t.Fatalf("timeline has %d points, want ~40", len(res.Timeline))
	}
}

// TestScaleStripedMatchesSequential is the scale mode's core regression:
// the same configuration run with sequential window execution and with
// the parallel worker pool must produce byte-identical timeline CSVs and
// identical scalar results. Worker count is forced above 1 so the
// parallel path actually fans out even on single-CPU CI machines.
func TestScaleStripedMatchesSequential(t *testing.T) {
	render := func(workers int) (string, *ScaleResult) {
		cfg := smallScaleConfig(scaling.ConScale, workers > 1)
		cfg.Workers = workers
		res := RunScale(cfg)
		var buf bytes.Buffer
		WriteScaleTimelineCSV(&buf, res)
		return buf.String(), res
	}
	seqCSV, seq := render(1)
	// 2 and 4 pooled workers over 5 shards, plus an over-provisioned
	// count that must clamp to the shard count — all forced above 1 so
	// the pool actually fans out even on single-CPU CI machines. Each
	// cell recycles requests through its own free list; under -race this
	// shows no list is touched from two shards.
	for _, workers := range []int{2, 4, 7} {
		parCSV, par := render(workers)
		if seqCSV != parCSV {
			t.Fatalf("workers=%d: timeline CSV diverges between sequential and striped-parallel execution:\nseq:\n%s\npar:\n%s",
				workers, seqCSV, parCSV)
		}
		if seq.Events != par.Events {
			t.Fatalf("workers=%d: event counts diverge: seq=%d par=%d", workers, seq.Events, par.Events)
		}
		if seq.P99 != par.P99 || seq.Goodput != par.Goodput || seq.Requests != par.Requests {
			t.Fatalf("workers=%d: results diverge: seq p99=%v goodput=%d, par p99=%v goodput=%d",
				workers, seq.P99, seq.Goodput, par.P99, par.Goodput)
		}
		if seq.VMs != par.VMs || seq.ScaleActions != par.ScaleActions {
			t.Fatalf("workers=%d: controller state diverges: seq vms=%d actions=%d, par vms=%d actions=%d",
				workers, seq.VMs, seq.ScaleActions, par.VMs, par.ScaleActions)
		}
		if par.Workers < 2 {
			t.Fatalf("workers=%d: run reports pool size %d, want >1", workers, par.Workers)
		}
	}
}

// TestScaleDeterministicAcrossRuns pins run-to-run determinism (same
// seed, same trajectory) — the property every other regression test
// builds on.
func TestScaleDeterministicAcrossRuns(t *testing.T) {
	a := RunScale(smallScaleConfig(scaling.EC2, false))
	b := RunScale(smallScaleConfig(scaling.EC2, false))
	if a.Events != b.Events || a.P99 != b.P99 || a.Goodput != b.Goodput {
		t.Fatalf("same-seed runs diverge: events %d vs %d, p99 %v vs %v", a.Events, b.Events, a.P99, b.P99)
	}
}

func TestScaleTelemetryHooks(t *testing.T) {
	cfg := smallScaleConfig(scaling.EC2, false)
	cfg.Telemetry = true
	res := RunScale(cfg)
	if res.Registry == nil {
		t.Fatal("telemetry registry missing")
	}
	var text bytes.Buffer
	if err := res.Registry.WriteProm(&text); err != nil {
		t.Fatalf("exposition failed: %v", err)
	}
	for _, want := range []string{"conscale_scale_arrivals_total", "conscale_client_rt_seconds"} {
		if !bytes.Contains(text.Bytes(), []byte(want)) {
			t.Fatalf("exposition lacks %s:\n%s", want, text.String())
		}
	}
}

func TestScaleRowAndReport(t *testing.T) {
	res := RunScale(smallScaleConfig(scaling.DCM, false))
	row := res.Row()
	if row.Mode != "dcm" || row.Clients != 3000 || row.P99Ms <= 0 {
		t.Fatalf("bad row: %+v", row)
	}
	var buf bytes.Buffer
	if err := WriteScaleReport(&buf, []ScaleRow{row}); err != nil {
		t.Fatalf("report write failed: %v", err)
	}
	for _, want := range []string{`"schema": "conscale-bench/7"`, `"mode": "dcm"`, `"workers": 1`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("report lacks %s:\n%s", want, buf.String())
		}
	}
}
