package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// countNames are the per-layer model counters the cells report, per round.
var countNames = []string{
	"pmu.fill_l2", "pmu.fill_l3_local", "pmu.fill_l3_remote", "pmu.fill_dram",
	"cache.l3_hits", "cache.l3_misses", "cache.l3_evictions",
	"core.tasks", "core.steals", "core.remote_steals", "core.migrations",
	"core.jobs_completed", "core.jobs_shed", "core.jobs_rejected",
	"tenant.rate_limited", "tenant.lease_grants", "power.throttle_events", "obs.spans_dropped",
}

type memSnap struct {
	alloc, gcs, pauseNS uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs}
}

// tracedRun measures the workload untraced for half the run, then traced
// with the CPU profiler on for the other half, runs the layer probes, and
// returns the per-layer metrics. The trace, the CPU profile and a record
// of the metrics with the host are written under o.out.
func tracedRun(r *runner, o options, host hostRecord, stdout io.Writer) (map[string]metric, error) {
	half := o.seconds / 2
	base := r.measure(half, nil)

	tr := newTracer()
	var prof bytes.Buffer
	m0 := readMem()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := r.measure(half, tr)
	pprof.StopCPUProfile()
	m1 := readMem()

	// Every host time below is scaled to the reference host speed with
	// the traced phase's calibration, like the end-to-end metrics.
	rounds, scale := float64(len(p.rounds)), p.scale()
	out := map[string]metric{}
	sec := func(name string, ns int64) { out[name] = metric{float64(ns) / 1e9 / rounds * scale, "s"} }
	sec("charm.init_s", tr.totals(spanInit).totalNS)
	sec("core.serve_s", tr.totals(spanServe).selfNS)
	sec("core.ctx_compute_s", tr.totals(spanCtxCompute).totalNS)
	sec("workloads.bfs_s", tr.totals(spanBFS).totalNS)
	sec("workloads.pagerank_s", tr.totals(spanPageRank).totalNS)
	sec("workloads.gups_s", tr.totals(spanGUPS).totalNS)
	rd := tr.totals(spanCtxRead)
	sec("core.ctx_read_s", rd.totalNS)
	out["core.ctx_read_calls"] = metric{float64(rd.count) / rounds, "count"}
	out["core.ctx_read_ns"] = metric{0, "ns"}
	if rd.count > 0 {
		out["core.ctx_read_ns"] = metric{float64(rd.totalNS) / float64(rd.count) * scale, "ns"}
	}

	for _, k := range countNames {
		out[k] = metric{p.counts[k] / rounds, "count"}
	}
	out["core.host_ns_per_task"] = metric{p.counts["core.host_ns_per_task"] / rounds * scale, "ns"}
	out["go.alloc_mb"] = metric{float64(m1.alloc-m0.alloc) / 1e6 / rounds, "MB"}
	out["go.gc_cycles"] = metric{float64(m1.gcs-m0.gcs) / rounds, "count"}
	out["go.gc_pause_s"] = metric{float64(m1.pauseNS-m0.pauseNS) / 1e9 / rounds * scale, "s"}
	out["host.raw_wall_s"] = metric{base.rawWallS(), "s"}
	out["host.calib_ms"] = metric{calibRefNS / base.scale() / 1e6, "ms"}
	out["sim_mb_per_s"] = metric{base.simMBPerS(), "MB/s"}
	out["jobs_per_s"] = metric{base.jobsPerS(), "jobs/s"}
	out["trace.overhead_pct"] = metric{100 * (p.wallS()/base.wallS() - 1), "%"}

	shares, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for m, v := range shares {
		out["cpu."+m] = metric{v, "share"}
	}
	// The probes run in one goroutine, so they get a one-goroutine
	// calibration of their own.
	probes := runProbes(o.seed)
	calib := make([]float64, 3)
	for i := range calib {
		calib[i] = float64(calibrate(1))
	}
	for k, v := range probes {
		out[k] = metric{v.Value * calibRefNS / median(calib), v.Unit}
	}

	path, err := tr.write(o.out, host, o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	profPath := filepath.Join(o.out, fmt.Sprintf("cpu-%s.pprof", o.workload))
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	recPath := filepath.Join(o.out, fmt.Sprintf("layers-%s.json", o.workload))
	if err := writeJSONFile(recPath, map[string]any{"host": host, "metrics": out}, true); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "rounds untraced %d traced %d\ntrace %s\nprofile %s\nrecord %s\n",
		len(base.rounds), len(p.rounds), path, profPath, recPath)
	return out, nil
}

// labelled runs fn under pprof labels naming the workload and cell, so a
// profile of the traced run splits by cell.
func labelled(workload, cell string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("workload", workload, "cell", cell), func(context.Context) { fn() })
}
