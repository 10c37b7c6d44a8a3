package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"charm/internal/admit"
	"charm/internal/fault"
	"charm/internal/pmu"
	"charm/internal/sim"
	"charm/internal/topology"
)

// jobRuntime builds a started deterministic runtime on a small synthetic
// machine for open-loop tests.
func jobRuntime(t *testing.T, opts Options) *Runtime {
	t.Helper()
	topo := topology.Synthetic(4, 2)
	m := sim.New(sim.Config{Topo: topo})
	if opts.Workers == 0 {
		opts.Workers = 8
	}
	rt := NewRuntime(m, opts)
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt
}

// computeJob builds a one-stage job of n tasks, each charging cost virtual
// ns and counting into ran.
func computeJob(n int, cost int64, ran *atomic.Int64) JobSpec {
	stage := make(JobStage, n)
	for i := range stage {
		stage[i] = func(ctx *Ctx) {
			ctx.Compute(cost)
			if ran != nil {
				ran.Add(1)
			}
		}
	}
	return JobSpec{Stages: []JobStage{stage}}
}

// TestOpenLoopPoissonDrain: a seeded Poisson arrival stream must admit,
// run, and complete every job, and Drain must return once the source is
// exhausted and all jobs are terminal.
func TestOpenLoopPoissonDrain(t *testing.T) {
	rt := jobRuntime(t, Options{Deterministic: true})
	var ran atomic.Int64
	const jobs = 40
	svc, err := rt.ServeJobs(JobServiceOptions{
		Policy: admit.Reject,
		Source: &SpecSource{
			Arrivals: admit.NewPoisson(7, 5_000, jobs),
			Gen: func(i int) JobSpec {
				s := computeJob(4, 2_000, &ran)
				s.Name = "j"
				s.Deadline = 10_000_000
				return s
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Drain()
	st := svc.Stats()
	if st.Submitted != jobs || st.Admitted != jobs || st.Completed != jobs {
		t.Fatalf("stats = %+v, want %d submitted/admitted/completed", st, jobs)
	}
	if st.Met != jobs {
		t.Errorf("Met = %d, want %d (generous deadline)", st.Met, jobs)
	}
	if ran.Load() != jobs*4 {
		t.Errorf("tasks ran = %d, want %d", ran.Load(), jobs*4)
	}
	for _, j := range svc.Jobs() {
		if j.State() != JobCompleted || !j.MetDeadline() || j.Latency() <= 0 {
			t.Fatalf("job %d: state=%v met=%v lat=%d", j.ID(), j.State(), j.MetDeadline(), j.Latency())
		}
	}
}

// TestSubmitJobExternal: SubmitJob outside any source must run the job and
// deliver completion through Done.
func TestSubmitJobExternal(t *testing.T) {
	rt := jobRuntime(t, Options{})
	var ran atomic.Int64
	j, err := rt.SubmitJob(computeJob(3, 1_000, &ran))
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != JobCompleted || ran.Load() != 3 {
		t.Fatalf("state=%v ran=%d", j.State(), ran.Load())
	}
}

// TestJobMultiStageOrder: stages must run strictly in order, with stage
// k+1 seeing every stage-k task finished.
func TestJobMultiStageOrder(t *testing.T) {
	rt := jobRuntime(t, Options{Deterministic: true})
	var s1 atomic.Int64
	var bad atomic.Bool
	spec := JobSpec{Stages: []JobStage{
		{
			func(ctx *Ctx) { ctx.Compute(3_000); s1.Add(1) },
			func(ctx *Ctx) { ctx.Compute(1_000); s1.Add(1) },
		},
		{}, // empty stages are skipped
		{
			func(ctx *Ctx) {
				if s1.Load() != 2 {
					bad.Store(true)
				}
			},
		},
	}}
	j, err := rt.SubmitJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != JobCompleted || bad.Load() {
		t.Fatalf("state=%v stageOrderViolated=%v", j.State(), bad.Load())
	}
}

// TestJobCancellation: cancelling a job must discard its queued tasks,
// unwind its suspended coroutines at Yield, and never give a dead job a
// fresh coroutine stack. The second (never-dispatched) stage must not run.
func TestJobCancellation(t *testing.T) {
	rt := jobRuntime(t, Options{Workers: 2, Deterministic: true})
	var stage2 atomic.Int64
	var resumed atomic.Int64
	release := make(chan struct{})
	var j *Job
	var mu sync.Mutex
	stage1 := make(JobStage, 4)
	for i := range stage1 {
		stage1[i] = func(ctx *Ctx) {
			mu.Lock()
			self := j
			mu.Unlock()
			<-release // hold until the cancel lands (host-side gate)
			ctx.Compute(1_000)
			self.Cancel()
			ctx.Yield() // cancellation point: must not return
			resumed.Add(1)
		}
	}
	spec := JobSpec{
		Coro:   true,
		Stages: []JobStage{stage1, {func(ctx *Ctx) { stage2.Add(1) }}},
	}
	mu.Lock()
	jj, err := rt.SubmitJob(spec)
	j = jj
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	<-j.Done()
	if j.State() != JobCancelled {
		t.Fatalf("state = %v, want cancelled", j.State())
	}
	if resumed.Load() != 0 {
		t.Errorf("%d coroutines ran past a post-cancel Yield", resumed.Load())
	}
	if stage2.Load() != 0 {
		t.Errorf("stage 2 ran %d tasks after cancellation", stage2.Load())
	}
	svc := rt.JobServer()
	if st := svc.Stats(); st.Cancelled != 1 || st.TasksCancelled == 0 {
		t.Errorf("stats = %+v, want 1 cancelled job with cancelled tasks", st)
	}
}

// TestShedPolicyDropsHopeless: under Shed, a job whose deadline budget is
// below its declared cost must be dropped at admission with ErrHopeless.
func TestShedPolicyDropsHopeless(t *testing.T) {
	rt := jobRuntime(t, Options{})
	if _, err := rt.ServeJobs(JobServiceOptions{Policy: admit.Shed}); err != nil {
		t.Fatal(err)
	}
	spec := computeJob(1, 1_000, nil)
	spec.Deadline = 10_000
	spec.Cost = 50_000 // estimated service time exceeds the budget
	j, err := rt.SubmitJob(spec)
	if !errors.Is(err, admit.ErrHopeless) {
		t.Fatalf("err = %v, want ErrHopeless", err)
	}
	if j.State() != JobShed {
		t.Fatalf("state = %v, want shed", j.State())
	}
}

// TestRejectPolicyTypedError: a full Reject queue must refuse with
// ErrQueueFull and leave prior jobs untouched.
func TestRejectPolicyTypedError(t *testing.T) {
	rt := jobRuntime(t, Options{})
	// MaxInFlight 1 and a held first job keep the queue occupied.
	if _, err := rt.ServeJobs(JobServiceOptions{Policy: admit.Reject, QueueCapacity: 1, MaxInFlight: 1}); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	blocker := JobSpec{Stages: []JobStage{{func(ctx *Ctx) { <-release }}}}
	j1, err := rt.SubmitJob(blocker)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until j1 is dispatched so the queue is empty, then fill it.
	for j1.State() == JobQueued {
		yieldHost()
	}
	j2, err := rt.SubmitJob(computeJob(1, 1_000, nil))
	if err != nil {
		t.Fatalf("queued job refused: %v", err)
	}
	if _, err := rt.SubmitJob(computeJob(1, 1_000, nil)); !errors.Is(err, admit.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	close(release)
	<-j1.Done()
	<-j2.Done()
	if j1.State() != JobCompleted || j2.State() != JobCompleted {
		t.Fatalf("states = %v/%v", j1.State(), j2.State())
	}
}

// TestJobFailure: a job whose task panics past the retry budget must end
// Failed with a typed TaskError.
func TestJobFailure(t *testing.T) {
	rt := jobRuntime(t, Options{})
	j, err := rt.SubmitJob(JobSpec{Stages: []JobStage{{
		func(ctx *Ctx) { panic("job boom") },
	}}})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != JobFailed {
		t.Fatalf("state = %v, want failed", j.State())
	}
	var te *TaskError
	if !errors.As(j.Err(), &te) {
		t.Fatalf("Err = %v, want *TaskError", j.Err())
	}
}

// TestFinalizeIdempotentAndTyped (satellite): Stop must be idempotent,
// wait out a racing Run, and make later submissions fail with
// ErrFinalized.
func TestFinalizeIdempotentAndTyped(t *testing.T) {
	topo := topology.Synthetic(2, 2)
	m := sim.New(sim.Config{Topo: topo})
	rt := NewRuntime(m, Options{Workers: 4})
	rt.Start()

	var ran atomic.Int64
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		rt.Run(func(ctx *Ctx) {
			ctx.Compute(200_000)
			ran.Add(1)
		})
	}()
	<-started
	rt.Stop() // must wait for the racing Run's tasks, not abandon them
	wg.Wait()
	if ran.Load() != 1 {
		t.Fatalf("racing Run lost its task (ran=%d)", ran.Load())
	}
	rt.Stop() // idempotent

	if _, err := rt.SubmitJob(JobSpec{}); !errors.Is(err, ErrFinalized) {
		t.Fatalf("SubmitJob after Stop: err = %v, want ErrFinalized", err)
	}
	func() {
		defer func() {
			if r := recover(); !errors.Is(r.(error), ErrFinalized) {
				t.Fatalf("Run after Stop panicked %v, want ErrFinalized", r)
			}
		}()
		rt.Run(func(ctx *Ctx) {})
		t.Fatal("Run after Stop returned")
	}()
}

// overloadRun drives one deterministic open-loop overload run and returns
// its observable outputs (stats, PMU totals, job latencies).
func overloadRun(t *testing.T, seed uint64) (JobStats, []int64, [4]int64) {
	t.Helper()
	topo := topology.Synthetic(4, 2)
	m := sim.New(sim.Config{Topo: topo})
	plan, err := fault.New("thermal", seed).
		ThermalThrottle(1, 200_000, 1_200_000, 3.0).
		Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(m, Options{Workers: 8, Deterministic: true, Faults: plan})
	rt.Start()
	defer rt.Stop()
	svc, err := rt.ServeJobs(JobServiceOptions{
		Policy:       admit.Shed,
		Breakers:     true,
		EvalInterval: 50_000,
		Source: &SpecSource{
			Arrivals: admit.NewPoisson(seed, 3_000, 120),
			Gen: func(i int) JobSpec {
				s := computeJob(4, 8_000, nil)
				s.Priority = i % 3
				s.Deadline = 120_000
				s.Cost = 32_000
				return s
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Drain()
	lats := make([]int64, 0, 120)
	for _, j := range svc.Jobs() {
		lats = append(lats, j.Latency())
	}
	return svc.Stats(), lats, rt.snapshotCounters()
}

// TestOpenLoopDeterministicReplay (satellite): two open-loop overload runs
// with the same seeds must be bit-identical — stats, shed counts, every
// job latency, and the PMU totals.
func TestOpenLoopDeterministicReplay(t *testing.T) {
	s1, l1, p1 := overloadRun(t, 11)
	s2, l2, p2 := overloadRun(t, 11)
	if s1 != s2 {
		t.Errorf("stats diverge:\n  %+v\n  %+v", s1, s2)
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Errorf("job latencies diverge")
	}
	if p1 != p2 {
		t.Errorf("PMU counters diverge: %v vs %v", p1, p2)
	}
}

// TestBreakerTripsUnderThermalFault: with breakers on, a browned-out
// chiplet must trip its breaker while the run makes progress.
func TestBreakerTripsUnderThermalFault(t *testing.T) {
	st, _, _ := overloadRun(t, 23)
	if st.BreakerTrips == 0 {
		t.Errorf("no breaker trips under 3x thermal throttle; stats = %+v", st)
	}
	if st.Completed == 0 {
		t.Errorf("no jobs completed; stats = %+v", st)
	}
	if st.Submitted != 120 {
		t.Errorf("Submitted = %d, want 120", st.Submitted)
	}
}

// goldenDigest hashes a tenantless run's observable outcome: the
// admission ledger, every job's (state, arrival, latency) and the PMU
// totals. Call it after Stop so no worker is still charging counters.
func goldenDigest(svc *JobService, rt *Runtime) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|", svc.Stats())
	for _, j := range svc.Jobs() {
		fmt.Fprintf(h, "%d:%d:%d,", j.State(), j.Arrival(), j.Latency())
	}
	for e := 0; e < pmu.NumEvents; e++ {
		fmt.Fprintf(h, "%d,", rt.M.PMU.Total(pmu.Event(e)))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenStream is a seeded Poisson source of n one-stage jobs (4 tasks of
// 8µs each) whose specs gen may adjust.
func goldenStream(seed uint64, gap int64, n int, gen func(i int, s *JobSpec)) JobSource {
	return &SpecSource{
		Arrivals: admit.NewPoisson(seed, gap, n),
		Gen: func(i int) JobSpec {
			s := computeJob(4, 8_000, nil)
			s.Priority = i % 3
			if gen != nil {
				gen(i, &s)
			}
			return s
		},
	}
}

// TestTenantlessDispatchGolden pins the tenantless job service's
// admission and dispatch outcomes to hashes recorded from a known-good
// build, one case per behaviour: Block holding arrivals upstream behind a
// full queue, Reject refusing with ErrQueueFull, Shed dropping hopeless
// and expired jobs, round-robin placement, a stream of external
// SubmitJob calls, and one cooperatively cancelled job. Replay tests
// compare two runs of the same build; this one compares against the past.
//
// A mismatch means the service's behaviour changed. If the change is
// intended, re-record by running
//
//	go test -run TestTenantlessDispatchGolden ./internal/core/
//
// and copying each case's "got" hash from the failure output.
func TestTenantlessDispatchGolden(t *testing.T) {
	const n = 60
	cases := []struct {
		name  string
		want  string
		opts  JobServiceOptions
		drive func(t *testing.T, rt *Runtime) // external submissions (after Start)
		check func(st JobStats) bool          // non-vacuity guard
	}{
		{
			name: "block",
			want: "57863b3ef1cda445",
			opts: JobServiceOptions{Policy: admit.Block, QueueCapacity: 2, MaxInFlight: 2,
				Source: goldenStream(3, 1_000, n, nil)},
			check: func(st JobStats) bool { return st.Completed == n && st.Rejected == 0 && st.MaxQueue == 2 },
		},
		{
			name: "reject",
			want: "102ce7d4ffa33de7",
			opts: JobServiceOptions{Policy: admit.Reject, QueueCapacity: 3, MaxInFlight: 2,
				Source: goldenStream(5, 1_000, n, nil)},
			check: func(st JobStats) bool { return st.Rejected > 0 && st.Completed > 0 },
		},
		{
			name: "shed",
			want: "301d1bff7cc5ace6",
			opts: JobServiceOptions{Policy: admit.Shed, QueueCapacity: 8, MaxInFlight: 2,
				Source: goldenStream(7, 2_000, n, func(i int, s *JobSpec) {
					s.Deadline = 40_000
					switch i % 4 {
					case 0:
						s.Cost = 60_000 // hopeless at admission
					case 1:
						s.Deadline = 12_000 // expires while queued
					default:
						s.Cost = 8_000
					}
				})},
			check: func(st JobStats) bool { return st.Shed > 0 && st.Expired > 0 && st.Completed > 0 },
		},
		{
			name: "roundrobin",
			want: "309b82b01b400363",
			opts: JobServiceOptions{Policy: admit.Reject, Placement: PlaceRoundRobin,
				Source: goldenStream(9, 4_000, n, func(i int, s *JobSpec) {
					s.Stages = append(s.Stages, computeJob(3, 2_000, nil).Stages...)
				})},
			check: func(st JobStats) bool { return st.Completed == n },
		},
		{
			name: "external",
			want: "7de59432805c8f97",
			drive: func(t *testing.T, rt *Runtime) {
				for i := 0; i < 12; i++ {
					s := computeJob(1+i%4, int64(1_000*(1+i%3)), nil)
					s.Priority = i % 2
					j, err := rt.SubmitJob(s)
					if err != nil {
						t.Fatal(err)
					}
					<-j.Done()
				}
			},
			check: func(st JobStats) bool { return st.Completed == 12 },
		},
		{
			name: "cancel",
			want: "410adbd7a97961c5",
			opts: JobServiceOptions{Policy: admit.Reject,
				Source: goldenStream(11, 4_000, 20, func(i int, s *JobSpec) {
					if i != 5 {
						return
					}
					s.Coro = true
					self := func(ctx *Ctx) {
						ctx.Compute(2_000)
						ctx.task.job.Cancel()
						ctx.Yield()
					}
					s.Stages = []JobStage{{self, self, self, self}, computeJob(2, 1_000, nil).Stages[0]}
				})},
			check: func(st JobStats) bool { return st.Cancelled == 1 && st.Completed == 19 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := topology.Synthetic(4, 2)
			rt := NewRuntime(sim.New(sim.Config{Topo: topo}), Options{Workers: 8, Deterministic: true})
			var svc *JobService
			if tc.opts.Source != nil {
				var err error
				if svc, err = rt.ServeJobs(tc.opts); err != nil {
					t.Fatal(err)
				}
			}
			rt.Start()
			if tc.drive != nil {
				tc.drive(t, rt)
				svc = rt.JobServer()
			}
			svc.Drain()
			rt.Stop()
			if st := svc.Stats(); !tc.check(st) {
				t.Fatalf("case no longer exercises its behaviour: %+v", st)
			}
			if got := goldenDigest(svc, rt); got != tc.want {
				t.Errorf("digest = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestServeJobsAfterStartReplays: a started deterministic fleet idles
// until ServeJobs installs the service, and every idle turn moves the
// lockstep's round-robin tie-break. ServeJobs pauses the fleet while it
// installs, so a Source-driven run must replay identically however long
// the host waited before the call.
func TestServeJobsAfterStartReplays(t *testing.T) {
	delays := []time.Duration{0, 500 * time.Microsecond, 2 * time.Millisecond}
	var want string
	for r := 0; r < 2*len(delays); r++ {
		topo := topology.Synthetic(4, 2)
		rt := NewRuntime(sim.New(sim.Config{Topo: topo}), Options{Workers: 8, Deterministic: true})
		rt.Start()
		time.Sleep(delays[r%len(delays)])
		svc, err := rt.ServeJobs(JobServiceOptions{Policy: admit.Shed, QueueCapacity: 8,
			Source: goldenStream(13, 2_000, 40, func(i int, s *JobSpec) {
				s.Deadline = 40_000
				s.Cost = 8_000
			})})
		if err != nil {
			t.Fatal(err)
		}
		svc.Drain()
		rt.Stop()
		got := goldenDigest(svc, rt)
		if r == 0 {
			want = got
		} else if got != want {
			t.Fatalf("replay %d (ServeJobs after %v) digest = %s, want %s",
				r, delays[r%len(delays)], got, want)
		}
	}
}
