// Command perfbench is the repository's benchmark: it runs one of three
// simulator workloads for a fixed host time, checks every simulated cell's
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output. See README.md.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload fabric-stream --seed 1 --seconds 10 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// cellLimit bounds one cell's host time; a cell still running after it
// is a hang, reported as a failed cell before the process exits.
const cellLimit = 90 * time.Second

//go:embed reference.json
var referenceJSON []byte

// reference holds the digests of every cell of one round, recorded at the
// commit the benchmark was defined on, per workload and seed.
type reference struct {
	DefaultSeed uint64                         `json:"default_seed"`
	Digests     map[string]map[string][]string `json:"digests"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

// want returns the recorded digest of a workload's cell at seed.
func (r *reference) want(workload string, seed uint64, cell int) (string, bool) {
	ds, ok := r.Digests[workload][strconv.FormatUint(seed, 10)]
	if !ok || cell >= len(ds) {
		return "", false
	}
	return ds[cell], true
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// round is one pass over a workload's cells.
type round struct {
	setupNS, runNS, tasks, simBytes, jobs int64
	// calibNS is the median calibration time after the round's cells.
	calibNS int64
}

// runner drives one workload and keeps its failure ledger.
type runner struct {
	name  string
	seed  uint64
	w     workload
	ref   *reference
	log   io.Writer
	cells int32

	mu        sync.Mutex
	attempted int
	failed    int
	digests   []string // per cell: the recorded reference, else the first round's
}

// phase is one timed stretch of rounds.
type phase struct {
	rounds []round
	counts map[string]float64 // summed over the phase's rounds
}

// runCell runs one cell, turning a panic into a failure.
func (r *runner) runCell(i int, tr *tracer) (out cellOut) {
	id := r.cells
	r.cells++
	cx := &cellCtx{tr: tr, id: id}
	cx.root = tr.begin(spanCell, id, nil)
	defer cx.root.end()
	guard := time.AfterFunc(cellLimit, func() { r.hang(i) })
	defer guard.Stop()
	defer func() {
		if p := recover(); p != nil {
			out.err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	if tr == nil {
		return r.w.runCell(i, cx)
	}
	labelled(r.name, r.w.cells()[i], func() { out = r.w.runCell(i, cx) })
	return out
}

// hang reports a cell that exceeded cellLimit and exits: its goroutines
// cannot be stopped from outside, so the process ends the run.
func (r *runner) hang(i int) {
	r.mu.Lock()
	res := result{Attempted: r.attempted + 1, Failed: r.failed + 1, Metrics: map[string]metric{}}
	r.mu.Unlock()
	fmt.Fprintf(r.log, "FAIL %s cell %s: still running after %v\n", r.name, r.w.cells()[i], cellLimit)
	line, _ := json.Marshal(res) // maps of numbers and strings always marshal
	fmt.Println(string(line))
	os.Exit(0)
}

// check validates one cell's output and records the outcome.
func (r *runner) check(i int, out cellOut) {
	err := out.err
	if err == nil {
		err = r.checkDigest(i, out.digest)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.log, "FAIL %s seed %d cell %s: %v\n", r.name, r.seed, r.w.cells()[i], err)
	}
}

// checkDigest compares a cell's digest with the recorded reference for
// this seed. Seeds without a reference compare every round with the
// run's first round instead: either way each cell must replay
// bit-identically.
func (r *runner) checkDigest(i int, d string) error {
	if r.digests == nil {
		r.digests = make([]string, len(r.w.cells()))
	}
	if want, ok := r.ref.want(r.name, r.seed, i); ok {
		r.digests[i] = want
		if d != want {
			return fmt.Errorf("digest %s, recorded reference %s", d, want)
		}
		return nil
	}
	if r.digests[i] == "" {
		r.digests[i] = d
	} else if d != r.digests[i] {
		return fmt.Errorf("digest %s differs from this run's first replay %s", d, r.digests[i])
	}
	return nil
}

// measure runs whole rounds until seconds of host time have passed (at
// least one round).
func (r *runner) measure(seconds float64, tr *tracer) phase {
	p := phase{counts: map[string]float64{}}
	start := time.Now()
	for len(p.rounds) == 0 || time.Since(start).Seconds() < seconds {
		var rd round
		calib := make([]float64, len(r.w.cells()))
		for i := range r.w.cells() {
			out := r.runCell(i, tr)
			// Collect the finished cell's garbage first, as testing.B does
			// before a benchmark, so no cell inherits another's GC debt and
			// no GC runs under the calibration kernel. Returning the freed
			// memory to the OS as well starts every cell from the same
			// resident set: after a plain GC, graph-steal's peak RSS
			// jumped by 7% in about one 30 s run in seven.
			debug.FreeOSMemory()
			calib[i] = float64(calibrate(r.w.threads()))
			r.check(i, out)
			rd.setupNS += out.setupNS
			rd.runNS += out.runNS
			rd.tasks += out.tasks
			rd.simBytes += out.simBytes
			rd.jobs += out.jobs
			for k, v := range out.counts {
				p.counts[k] += v
			}
		}
		rd.calibNS = int64(median(calib))
		p.rounds = append(p.rounds, rd)
	}
	return p
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perRound returns the median over rounds of f.
func (p phase) perRound(f func(round) float64) float64 {
	xs := make([]float64, len(p.rounds))
	for i, rd := range p.rounds {
		xs[i] = f(rd)
	}
	return median(xs)
}

// scale converts a round's raw host times to the reference host speed.
func (r round) scale() float64 { return calibRefNS / float64(r.calibNS) }

// scale is the phase's median round scale.
func (p phase) scale() float64 { return p.perRound(round.scale) }

func (p phase) rawWallS() float64 {
	return p.perRound(func(r round) float64 { return float64(r.runNS) / 1e9 })
}
func (p phase) wallS() float64 {
	return p.perRound(func(r round) float64 { return float64(r.runNS) / 1e9 * r.scale() })
}
func (p phase) setupS() float64 {
	return p.perRound(func(r round) float64 { return float64(r.setupNS) / 1e9 * r.scale() })
}

// perS returns the median over rounds of n per measured host second, at
// the reference host speed.
func (p phase) perS(n func(round) int64) float64 {
	return p.perRound(func(r round) float64 { return float64(n(r)) / (float64(r.runNS) / 1e9 * r.scale()) })
}
func (p phase) tasksPerS() float64 { return p.perS(func(r round) int64 { return r.tasks }) }
func (p phase) simMBPerS() float64 { return p.perS(func(r round) int64 { return r.simBytes }) / 1e6 }
func (p phase) jobsPerS() float64  { return p.perS(func(r round) int64 { return r.jobs }) }

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	record   string
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: fabric-stream, graph-steal or tenant-flood")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds to measure")
	traceN := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for the traced run's trace, profile and record")
	fs.StringVar(&o.record, "record", "", "record reference digests for seeds 0-63 into this file and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *traceN != 0 && *traceN != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *traceN)
	}
	if o.seconds < 0 {
		return o, errors.New("--seconds must not be negative")
	}
	o.trace = *traceN == 1
	if o.record == "" && !slices.Contains(workloadNames, o.workload) {
		return o, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	return o, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.record != "" {
		if err := recordReference(o.record, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := bench(o, ref, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench runs one workload and returns the result line.
func bench(o options, ref *reference, stdout, stderr io.Writer) (result, error) {
	host := newHostRecord(o)
	hostLine, _ := json.Marshal(host) // a struct of strings and numbers always marshals
	fmt.Fprintf(stdout, "host %s\n", hostLine)

	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return result{}, err
	}
	r := &runner{name: o.workload, seed: o.seed, w: w, ref: ref, log: stderr}
	r.measure(0, nil) // warm-up round: heap growth, code and data caches

	var metrics map[string]metric
	if o.trace {
		if metrics, err = tracedRun(r, o, host, stdout); err != nil {
			return result{}, err
		}
	} else {
		p := r.measure(o.seconds, nil)
		metrics = map[string]metric{
			"wall_s":      {p.wallS(), "s"},
			"tasks_per_s": {p.tasksPerS(), "tasks/s"},
			"setup_s":     {p.setupS(), "s"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
		}
		fmt.Fprintf(stdout, "rounds %d wall_s", len(p.rounds))
		for _, rd := range p.rounds {
			fmt.Fprintf(stdout, " %.4f/%.2f", float64(rd.runNS)/1e9, float64(rd.calibNS)/1e6)
		}
		fmt.Fprintf(stdout, " (raw s/calibration ms)\nraw_wall_s %.6g s, host speed scale %.4f\n", p.rawWallS(), p.scale())
		if v := p.simMBPerS(); v > 0 {
			fmt.Fprintf(stdout, "sim_mb_per_s %.4f MB/s\n", v)
		}
		if v := p.jobsPerS(); v > 0 {
			fmt.Fprintf(stdout, "jobs_per_s %.4f jobs/s\n", v)
		}
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%s %.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	for i, d := range r.digests {
		fmt.Fprintf(stdout, "digest %s seed %d cell %s %s\n", o.workload, o.seed, w.cells()[i], d)
	}
	fmt.Fprintf(stdout, "cells attempted %d failed %d\n", r.attempted, r.failed)
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}, nil
}

// recordSeeds are the seeds whose digests recordReference stores.
const recordSeeds = 64

// recordReference runs three rounds of every workload at seeds
// 0..recordSeeds-1 and writes each cell's digest to path. A cell that
// fails validation, or whose three replays do not all agree, aborts the
// recording.
func recordReference(path string, log io.Writer) error {
	ref := reference{DefaultSeed: 1, Digests: map[string]map[string][]string{}}
	for _, name := range workloadNames {
		ref.Digests[name] = map[string][]string{}
		for seed := uint64(0); seed < recordSeeds; seed++ {
			w, err := newWorkload(name, seed)
			if err != nil {
				return err
			}
			ds := make([]string, len(w.cells()))
			for round := 0; round < 3; round++ {
				for i := range w.cells() {
					out := w.runCell(i, &cellCtx{})
					if out.err != nil {
						return fmt.Errorf("%s seed %d cell %s: %w", name, seed, w.cells()[i], out.err)
					}
					if round == 0 {
						ds[i] = out.digest
					} else if out.digest != ds[i] {
						return fmt.Errorf("%s seed %d cell %s: replays diverged (%s, then %s)",
							name, seed, w.cells()[i], ds[i], out.digest)
					}
				}
			}
			ref.Digests[name][strconv.FormatUint(seed, 10)] = ds
			fmt.Fprintf(log, "%s seed %d %v\n", name, seed, ds)
		}
	}
	return writeJSONFile(path, ref, true)
}
