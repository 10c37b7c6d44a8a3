package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShortRunsEmitEveryMetric runs one round of every workload, untraced
// and traced, and requires every metric BENCHMARK.json names, with its
// unit, and no failed cell at the recorded seed.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadNames))
	}
	for _, w := range spec.Workloads {
		if _, ok := ref.want(w.Name, ref.DefaultSeed, 0); !ok {
			t.Errorf("%s: no reference digest at the default seed", w.Name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			o := options{workload: w.Name, seed: ref.DefaultSeed, trace: traced, out: t.TempDir()}
			res, err := bench(o, ref, io.Discard, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestTamperedDigestFails proves a reference mismatch counts as a failed
// cell.
func TestTamperedDigestFails(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	seed := "1"
	good := ref.Digests["tenant-flood"][seed]
	if len(good) == 0 {
		t.Fatal("no tenant-flood reference at seed 1")
	}
	ref.Digests["tenant-flood"][seed] = []string{strings.Repeat("0", len(good[0]))}
	res, err := bench(options{workload: "tenant-flood", seed: 1}, ref, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || res.Attempted < 1 {
		t.Fatalf("tampered digest: correct=%v attempted=%d failed=%d, want every cell failed",
			res.Correct, res.Attempted, res.Failed)
	}
}

// TestCorruptBFSFails proves a BFS parent array that fails validation
// counts as a failed cell.
func TestCorruptBFSFails(t *testing.T) {
	w := newGraphSteal(1)
	w.corruptBFS = func(parent []int32) {
		for v := range parent {
			if parent[v] >= 0 && int32(v) != parent[v] {
				parent[v] = int32(v) // a vertex that is its own parent but not the root
				return
			}
		}
	}
	r := &runner{name: "graph-steal", seed: 1, w: w, ref: &reference{}, log: io.Discard}
	r.measure(0, nil)
	if r.attempted != 1 || r.failed != 1 {
		t.Fatalf("corrupted BFS: attempted=%d failed=%d, want 1 and 1", r.attempted, r.failed)
	}
}

func TestLedgerConservation(t *testing.T) {
	if err := ledgerErr("s", 10, 6, 1, 1, 1, 0, 1); err != nil {
		t.Errorf("balanced ledger rejected: %v", err)
	}
	if err := ledgerErr("s", 10, 6, 1, 1, 1, 0, 0); err == nil {
		t.Error("ledger missing one job accepted")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"charm/internal/cache.(*Cache).Lookup":              "cache",
		"charm/internal/workloads/graph.(*Bound).BFS.func1": "workloads",
		"charm/internal/core.(*Ctx).Read":                   "core",
		"runtime.mallocgc":                                  "runtime",
		"internal/runtime/atomic.(*Uint32).Load":            "runtime",
		"charm.(*Runtime).Run":                              "other",
		"main.(*runner).measure":                            "other",
		"sync.(*Mutex).Lock":                                "other",
		"charm/internal/rng.Seed":                           "other",
		"charm/internal/topology.(*Topology).L3HitLatency":  "topology",
		"charm/internal/fabric.(*routed).ChargeTransfer":    "fabric",
		"charm/internal/sim.(*Machine).accessLine.func1":    "sim",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBadArgumentsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fabric-stream", "--trace", "2"},
		{"--workload", "fabric-stream", "extra"},
	} {
		var stdout bytes.Buffer
		if code := run(args, &stdout, io.Discard); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and no output", args, code, stdout.String())
		}
	}
}

// TestRunPrintsResultLast runs the command line and decodes its last line.
func TestRunPrintsResultLast(t *testing.T) {
	var stdout bytes.Buffer
	if code := run([]string{"--workload", "tenant-flood", "--seconds", "0"}, &stdout, io.Discard); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
	}
	if !res.Correct || res.Attempted < 1 || len(res.Metrics) == 0 {
		t.Fatalf("result %+v", res)
	}
}
