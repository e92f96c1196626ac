package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// stackSample is one CPU profile trace: its call stack, innermost frame
// first (inlined frames included), and its CPU time in nanoseconds.
type stackSample struct {
	frames []string
	value  int64
}

// repoPrefix marks the simulator's own packages; a sample is charged to
// the package of its innermost frame under it.
const repoPrefix = "conscale/internal/"

// gcRoots are runtime frames that mark a sample without a repo frame as
// garbage-collector work: mark workers, background sweep and scavenge, and
// the profiler's pseudo-frame for GC samples it could not unwind.
var gcRoots = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC"}

// layerOf names the layer a stack is charged to. The innermost
// conscale/internal/<pkg> frame wins, so a stdlib or runtime leaf (math.Log,
// mallocgc) counts for the repo layer that called it. Stacks with no such
// frame go to "other" if they hold any other repo frame (the root facade or
// the benchmark's own main), else to "runtime.gc" or "runtime.sched"
// (scheduler, park/unpark, sysmon and everything else the runtime does).
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, repoPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "conscale") || strings.HasPrefix(f, "main.") {
			return "other"
		}
	}
	for _, f := range frames {
		for _, root := range gcRoots {
			if strings.HasPrefix(f, root) {
				return "runtime.gc"
			}
		}
	}
	return "runtime.sched"
}

// layerCPU splits the samples' CPU nanoseconds by layer. Every sample goes
// to exactly one layer, so the values sum to the profile's total.
func layerCPU(samples []stackSample) map[string]int64 {
	byLayer := map[string]int64{}
	for _, s := range samples {
		byLayer[layerOf(s.frames)] += s.value
	}
	return byLayer
}

// readProfile lists the traces of a CPU profile with the toolchain's own
// reader, `go tool pprof -traces`, which needs no download.
func readProfile(path string) ([]stackSample, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", "-unit=ns", path)
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTraces(strings.NewReader(string(out)))
}

// parseTraces reads `go tool pprof -traces -unit=ns` output. After a
// header, each trace follows a "-----------+---" separator line: its first
// line holds the CPU time ("10000000ns") and the innermost function, and
// each further line one caller, indented.
func parseTraces(r io.Reader) ([]stackSample, error) {
	var (
		out    []stackSample
		opened bool // the last line was a separator
	)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			opened = true
		case opened:
			opened = false
			val, fn, ok := strings.Cut(strings.TrimSpace(line), " ")
			ns, err := strconv.ParseInt(strings.TrimSuffix(val, "ns"), 10, 64)
			if !ok || !strings.HasSuffix(val, "ns") || err != nil {
				return nil, fmt.Errorf("unexpected trace line %q", line)
			}
			out = append(out, stackSample{frames: []string{frame(fn)}, value: ns})
		case len(out) > 0 && strings.HasPrefix(line, " "):
			s := &out[len(out)-1]
			s.frames = append(s.frames, frame(line))
		}
	}
	return out, sc.Err()
}

// frame strips the padding and the inline marker from a trace line.
func frame(s string) string {
	return strings.TrimSuffix(strings.TrimSpace(s), " (inline)")
}
