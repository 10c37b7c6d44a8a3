package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"charm"
	"charm/internal/baselines"
	"charm/internal/core"
	"charm/internal/fabric"
	"charm/internal/pmu"
	"charm/internal/sim"
	"charm/internal/topology"
	"charm/internal/workloads/graph"
	"charm/internal/workloads/gups"
)

// cellOut is what one simulated cell reports. A cell is one runtime's
// run: one Init, its workload, one Finalize.
type cellOut struct {
	setupNS, runNS int64
	tasks          int64 // PMU TaskRun
	simBytes       int64 // PMU BytesRead + BytesWritten
	jobs           int64 // arrivals presented to admission
	digest         string
	err            error
	// counts are the cell's model counters for the traced run: exact on
	// the deterministic workloads, reported only on the host-scheduled one.
	counts map[string]float64
}

// cellCtx carries a cell's tracing state. tr is nil in untraced runs.
type cellCtx struct {
	tr   *tracer
	id   int32
	root *scope
}

// workload is one benchmark workload: a fixed list of cells that make up
// a round, over inputs generated from the seed before any timing starts.
type workload interface {
	cells() []string
	runCell(i int, cx *cellCtx) cellOut
	// threads is how many host threads the workload keeps busy.
	threads() int
}

// newWorkload generates a workload's inputs from seed.
func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "fabric-stream":
		return newFabricStream(seed), nil
	case "graph-steal":
		return newGraphSteal(seed), nil
	case "tenant-flood":
		return newTenantFlood(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var workloadNames = []string{"fabric-stream", "graph-steal", "tenant-flood"}

// --- shared helpers ---

func since(t time.Time) int64 { return int64(time.Since(t)) }

// read and compute wrap the task closures' calls into core.Ctx with a
// span when the cell is traced.
func read(ctx *charm.Ctx, sc *scope, a charm.Addr, n int64) {
	if sc == nil {
		ctx.Read(a, n)
		return
	}
	t := sc.t.now()
	ctx.Read(a, n)
	sc.leaf(ctx.Worker(), spanCtxRead, t)
}

func compute(ctx *charm.Ctx, sc *scope, ns int64) {
	if sc == nil {
		ctx.Compute(ns)
		return
	}
	t := sc.t.now()
	ctx.Compute(ns)
	sc.leaf(ctx.Worker(), spanCtxCompute, t)
}

// drain collects a pre-generated arrival sequence.
func drain(p interface{ Next() (int64, bool) }) []int64 {
	var at []int64
	for {
		t, ok := p.Next()
		if !ok {
			return at
		}
		at = append(at, t)
	}
}

// ledgerErr checks job-ledger conservation: every arrival presented to
// admission ends in exactly one terminal state.
func ledgerErr(who string, submitted, completed, rejected, shed, expired, cancelled, failed int64) error {
	if sum := completed + rejected + shed + expired + cancelled + failed; sum != submitted {
		return fmt.Errorf("%s ledger: submitted %d != completed %d + rejected %d + shed %d + expired %d + cancelled %d + failed %d (= %d)",
			who, submitted, completed, rejected, shed, expired, cancelled, failed, sum)
	}
	return nil
}

// newDetRuntime builds a Deterministic runtime under the CHARM policy
// the way charm.Init does, but does not start it: the caller installs its
// job service first and then calls Start.
//
// charm.Init starts the worker fleet before it returns. An idle fleet
// passes the lockstep turn round-robin, and the previous turn holder
// breaks clock ties, so how many idle turns the host fits in before a
// later ServeJobs decides which worker pumps the first arrival, and with
// it the simulated result. Installing the service before Start gives
// every replay of a cell the same first turn.
func newDetRuntime(topo *topology.Topology, fab string, mlp int64, workers int,
	pcfg *charm.PowerConfig, faults *charm.FaultSchedule) (*core.Runtime, *sim.Machine, error) {
	kind, err := fabric.ParseKind(fab)
	if err != nil {
		return nil, nil, err
	}
	if err := topo.Validate(); err != nil {
		return nil, nil, err
	}
	if pcfg != nil {
		if err := pcfg.Validate(); err != nil {
			return nil, nil, err
		}
	}
	opts := core.Options{Workers: workers, Policy: baselines.CHARM.Policy(), Power: pcfg, Deterministic: true}
	if faults != nil {
		if opts.Faults, err = faults.Compile(topo); err != nil {
			return nil, nil, err
		}
	}
	m := sim.New(sim.Config{Topo: topo, Fabric: kind, MLP: mlp})
	return core.NewRuntime(m, opts), m, nil
}

// digestJobs hashes the job list's terminal states and latencies and the
// PMU totals.
func digestJobs(h hash.Hash, m *sim.Machine, jobs []*charm.Job) {
	for _, j := range jobs {
		fmt.Fprintf(h, "%d:%d:%d,", j.State(), j.Arrival(), j.Latency())
	}
	for e := 0; e < pmu.NumEvents; e++ {
		fmt.Fprintf(h, "%d,", m.PMU.Total(charm.Event(e)))
	}
}

func sum16(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// cacheCounts reads the PMU fill counters and the summed L3 statistics.
func cacheCounts(m *sim.Machine, c map[string]float64) {
	n := m.PMU.Total
	c["pmu.fill_l2"] = float64(n(charm.FillL2))
	c["pmu.fill_l3_local"] = float64(n(charm.FillL3Local))
	c["pmu.fill_l3_remote"] = float64(n(charm.FillL3RemoteNear) +
		n(charm.FillL3RemoteFar) + n(charm.FillL3RemoteSocket))
	c["pmu.fill_dram"] = float64(n(charm.FillDRAMLocal) + n(charm.FillDRAMRemote))
	for ch := 0; ch < m.Topo.NumChiplets(); ch++ {
		l3 := m.L3(topology.ChipletID(ch))
		hits, misses := l3.Stats()
		c["cache.l3_hits"] += float64(hits)
		c["cache.l3_misses"] += float64(misses)
		c["cache.l3_evictions"] += float64(l3.Evictions())
	}
}

func basicOut(m *sim.Machine, out *cellOut) {
	out.tasks = m.PMU.Total(charm.TaskRun)
	out.simBytes = m.PMU.Total(charm.BytesRead) + m.PMU.Total(charm.BytesWritten)
	out.counts = map[string]float64{}
	cacheCounts(m, out.counts)
}

// --- fabric-stream: the data plane ---

// fabric-stream is the topo experiment's mixed job stream: memory jobs
// sweep a package-resident shared array, so nearly every access is a
// cross-chiplet L3 hit charged on the fabric, and compute jobs prefer
// accelerator dies. It runs on routed and hub fabrics, homogeneous and
// heterogeneous mixes, under load-aware placement.
const (
	fsWorkers   = 16
	fsJobs      = 50
	fsShared    = 256 << 10 // fits the aggregate L3, not one chiplet's
	fsChunk     = 32 << 10  // bytes per ctx.Read
	fsSweeps    = 2
	fsMLP       = 32
	fsComputeNS = 12_000
	fsTasks     = 4
	fsDeadline  = 2_000_000
	fsQueueCap  = 256
	fsGapNS     = 9_000
)

var fsSpecs = []string{
	"ring:4x2",
	"mesh:4x2,fast=2,eff=4,accel=2",
	"star:4x2",
	"flatfly:4x2,fast=2,eff=4,accel=2",
}

type fabricStream struct {
	arrivals []int64
	// starts[i][k] is the byte offset where task k of memory job i
	// starts its sweeps.
	starts [][fsTasks]int64
}

func newFabricStream(seed uint64) *fabricStream {
	w := &fabricStream{arrivals: drain(charm.NewPoissonArrivals(seed, fsGapNS, fsJobs))}
	r := rand.New(rand.NewPCG(seed, 0x66737472))
	w.starts = make([][fsTasks]int64, fsJobs)
	for i := range w.starts {
		for k := range w.starts[i] {
			w.starts[i][k] = int64(r.IntN(fsShared/fsChunk)) * fsChunk
		}
	}
	return w
}

func (w *fabricStream) cells() []string { return fsSpecs }
func (w *fabricStream) threads() int    { return 1 } // the lockstep baton serializes workers

func (w *fabricStream) gen(hot charm.Addr, sc *scope) func(i int) charm.JobSpec {
	return func(i int) charm.JobSpec {
		stage := make(charm.JobStage, fsTasks)
		spec := charm.JobSpec{Name: fmt.Sprintf("job-%d", i), Deadline: fsDeadline, Stages: []charm.JobStage{stage}}
		if i%2 == 0 {
			for k := range stage {
				start := w.starts[i][k]
				stage[k] = func(ctx *charm.Ctx) {
					for s := 0; s < fsSweeps; s++ {
						for off := int64(0); off < fsShared; off += fsChunk {
							read(ctx, sc, hot+charm.Addr((start+off)%fsShared), fsChunk)
						}
					}
				}
			}
			spec.Prefer, spec.Cost = charm.KindEfficient, 120_000
		} else {
			for k := range stage {
				stage[k] = func(ctx *charm.Ctx) { compute(ctx, sc, fsComputeNS) }
			}
			spec.Prefer, spec.Cost = charm.KindAccel, fsTasks*fsComputeNS
		}
		return spec
	}
}

func (w *fabricStream) runCell(i int, cx *cellCtx) cellOut {
	var out cellOut
	spec := fsSpecs[i]
	t0 := time.Now()
	init := cx.tr.begin(spanInit, cx.id, cx.root)
	sp, err := topology.ParseTopoSpec(spec)
	if err != nil {
		out.err = err
		return out
	}
	topo, err := sp.Build()
	if err != nil {
		out.err = err
		return out
	}
	rt, m, err := newDetRuntime(topo, sp.Fabric, fsMLP, fsWorkers, nil, nil)
	if err != nil {
		out.err = err
		return out
	}
	defer rt.Stop()
	hot := rt.Alloc(fsShared, 0)
	init.end()
	out.setupNS = since(t0)

	t1 := time.Now()
	serve := cx.tr.begin(spanServe, cx.id, cx.root)
	svc, err := rt.ServeJobs(charm.JobServiceOptions{
		Policy:        charm.AdmitShed,
		QueueCapacity: fsQueueCap,
		Placement:     charm.PlaceLoadAware,
		EvalInterval:  50_000,
		Source:        &charm.SpecSource{Arrivals: charm.NewTraceArrivals(w.arrivals), Gen: w.gen(hot, serve)},
	})
	if err != nil {
		out.err = err
		return out
	}
	rt.Start()
	svc.Drain()
	serve.end()
	out.runNS = since(t1)

	st := svc.Stats()
	out.jobs = st.Submitted
	out.err = ledgerErr("service", st.Submitted, st.Completed, st.Rejected, st.Shed, st.Expired, st.Cancelled, st.Failed)
	basicOut(m, &out)
	out.counts["core.jobs_completed"] = float64(st.Completed)
	out.counts["core.jobs_shed"] = float64(st.Shed)
	out.counts["core.jobs_rejected"] = float64(st.Rejected)
	h := sha256.New()
	fmt.Fprintf(h, "%s|%+v|", spec, st)
	digestJobs(h, m, svc.Jobs())
	out.digest = sum16(h)
	return out
}

// --- graph-steal: the host-parallel engine ---

// graph-steal runs graph analytics and GUPS on a host-scheduled runtime
// (no lockstep), where the work-stealing engine and Go's scheduler do the
// most. GUPS's table is twice the aggregate L3, so its updates miss to
// DRAM and evict.
const (
	gsWorkers     = 64
	gsCacheScale  = 256
	gsSampleShift = 2
	gsTimer       = 25_000
	gsLogVertices = 13
	gsBFS         = 4
	gsPRIters     = 3
	gsPRTolerance = 1e-9
)

type graphSteal struct {
	seed    uint64
	g       *graph.CSR
	roots   []int32
	ranks   []float64 // host-computed PageRank reference
	gupsLog int       // log2 of the GUPS table length in words
	// corruptBFS, when set, damages each BFS parent array before it is
	// validated (tests use it to prove the failure path).
	corruptBFS func([]int32)
}

func newGraphSteal(seed uint64) *graphSteal {
	w := &graphSteal{seed: seed}
	w.g = graph.Kronecker(graph.GenConfig{LogVertices: gsLogVertices, EdgeFactor: 16, Seed: seed})
	r := rand.New(rand.NewPCG(seed, 0x67726170))
	for len(w.roots) < gsBFS {
		if v := int32(r.IntN(w.g.N)); w.g.Degree(v) > 0 {
			w.roots = append(w.roots, v)
		}
	}
	w.ranks = pageRankRef(w.g, gsPRIters)
	// Table length: the smallest power of two at least twice the scaled
	// machine's aggregate L3.
	topo := milanTopo()
	aggL3 := int64(topo.NumChiplets()) * topo.L3PerChiplet
	for w.gupsLog = 10; int64(8)<<w.gupsLog < 2*aggL3; w.gupsLog++ {
	}
	return w
}

// pageRankRef computes Bound.PageRank's result on the host, in the same
// floating-point order, so the simulated run must match it bit for bit.
func pageRankRef(g *graph.CSR, iters int) []float64 {
	rank, next := make([]float64, g.N), make([]float64, g.N)
	inv := 1.0 / float64(g.N)
	for i := range rank {
		rank[i] = inv
	}
	for it := 0; it < iters; it++ {
		for v := 0; v < g.N; v++ {
			var sum float64
			for _, u := range g.Neighbors(int32(v)) {
				if d := g.Degree(u); d > 0 {
					sum += rank[u] / float64(d)
				}
			}
			next[v] = 0.15*inv + 0.85*sum
		}
		rank, next = next, rank
	}
	return rank
}

func (w *graphSteal) cells() []string { return []string{"milan-64w"} }
func (w *graphSteal) threads() int    { return runtime.GOMAXPROCS(0) }

// grain mirrors the harness's graph task sizing: at least eight tasks per
// worker, clamped to [16, 2048] iterations.
func grain(n, workers int) int { return min(max(n/(workers*8), 16), 2048) }

func (w *graphSteal) runCell(_ int, cx *cellCtx) cellOut {
	var out cellOut
	t0 := time.Now()
	init := cx.tr.begin(spanInit, cx.id, cx.root)
	rt, err := charm.Init(charm.Config{
		Topology: charm.AMDMilan(), CacheScale: gsCacheScale, Workers: gsWorkers,
		SampleShift: gsSampleShift, SchedulerTimer: gsTimer,
	})
	if err != nil {
		out.err = err
		return out
	}
	defer rt.Finalize()
	b := graph.Bind(rt, w.g, grain(w.g.N, gsWorkers))
	init.end()
	out.setupNS = since(t0)

	h := sha256.New()
	fail := func(e error) {
		if out.err == nil {
			out.err = e
		}
	}
	t1 := time.Now()
	for r, root := range w.roots {
		sc := cx.tr.begin(spanBFS, cx.id, cx.root)
		parent, res := b.BFS(root)
		sc.end()
		if w.corruptBFS != nil {
			w.corruptBFS(parent)
		}
		if err := graph.ValidateBFS(w.g, root, parent); err != nil {
			fail(fmt.Errorf("bfs %d from %d: %w", r, root, err))
		}
		fmt.Fprintf(h, "bfs%d:%d:%d|", root, res.WorkEdges, res.Rounds)

		sc = cx.tr.begin(spanPageRank, cx.id, cx.root)
		ranks, res := b.PageRank(gsPRIters)
		sc.end()
		if err := w.checkRanks(ranks); err != nil {
			fail(fmt.Errorf("pagerank %d: %w", r, err))
		}
		fmt.Fprintf(h, "pr:%d|", res.WorkEdges)
	}
	sc := cx.tr.begin(spanGUPS, cx.id, cx.root)
	updates := 4 << w.gupsLog
	gres := gups.Run(rt, gups.Config{LogTableSize: w.gupsLog, Grain: grain(updates, gsWorkers), Seed: w.seed})
	sc.end()
	out.runNS = since(t1)
	if gres.Updates != int64(updates) {
		fail(fmt.Errorf("gups: %d updates, want %d", gres.Updates, updates))
	}

	basicOut(rt.Machine(), &out)
	fmt.Fprintf(h, "gups:%d|bytes:%d", gres.Updates, out.simBytes)
	out.digest = sum16(h)
	out.counts["core.tasks"] = float64(out.tasks)
	out.counts["core.steals"] = float64(rt.Counter(charm.TaskSteal))
	out.counts["core.remote_steals"] = float64(rt.Counter(charm.StealRemoteChiplet))
	out.counts["core.migrations"] = float64(rt.Counter(charm.Migration))
	if out.tasks > 0 {
		out.counts["core.host_ns_per_task"] = float64(out.runNS) / float64(out.tasks)
	}
	return out
}

// checkRanks requires the simulated PageRank to equal the host reference
// exactly and its ranks to sum to the reference's total within tolerance
// (below 1 by the mass that leaks through vertices of degree zero).
func (w *graphSteal) checkRanks(ranks []float64) error {
	if len(ranks) != len(w.ranks) {
		return fmt.Errorf("%d ranks, want %d", len(ranks), len(w.ranks))
	}
	var sum, want float64
	for v := range ranks {
		if ranks[v] != w.ranks[v] {
			return fmt.Errorf("rank[%d] = %g, want %g", v, ranks[v], w.ranks[v])
		}
		sum += ranks[v]
		want += w.ranks[v]
	}
	if math.Abs(sum-want) > gsPRTolerance || sum > 1+gsPRTolerance {
		return fmt.Errorf("ranks sum to %.12f, want %.12f (at most 1)", sum, want)
	}
	return nil
}

// --- tenant-flood: the control plane ---

// tenant-flood is the tenants experiment scaled up and made harsher: a
// diurnal tenant A beside a tenant B that flash-crowds to ten times its
// quota behind a token bucket, with per-tenant Shed queues, DRR dispatch,
// elastic leases, the power plane, span tracing with an SLO, and a
// chiplet-offline window. Tasks only compute, so no simulated memory is
// touched.
const (
	tfWorkers      = 8
	tfTasks        = 4
	tfTaskNS       = 10_000
	tfDeadline     = 200_000
	tfQueueCap     = 64
	tfMaxInFlight  = 256
	tfAJobs        = 3_000
	tfAGap         = 26_000
	tfAPeriod      = 1_000_000
	tfAAmp         = 0.3
	tfBJobs        = 42_000
	tfBGap         = 10_000
	tfBPeriod      = 400_000
	tfBBurst       = 200_000
	tfBFactor      = 10
	tfBucketGap    = 10_000
	tfBucketBurst  = 4
	tfEvalInterval = 50_000
)

type tenantFlood struct {
	aArr, bArr []int64
	// The fault offlines chiplet 0 (one of A's leases) over
	// [offFrom, offTo): the middle quarter of A's arrival span.
	offFrom, offTo int64
}

func newTenantFlood(seed uint64) *tenantFlood {
	w := &tenantFlood{
		aArr: drain(charm.NewDiurnalArrivals(seed, tfAGap, tfAPeriod, tfAAmp, tfAJobs)),
		bArr: drain(charm.NewFlashCrowdArrivals(seed^0x5eed, tfBGap, tfBPeriod, tfBBurst, tfBFactor, tfBJobs)),
	}
	span := w.aArr[len(w.aArr)-1]
	w.offFrom, w.offTo = span/4, span/2
	return w
}

func (w *tenantFlood) cells() []string { return []string{"two-tenant"} }
func (w *tenantFlood) threads() int    { return 1 } // the lockstep baton serializes workers

func tfSpecs() (a, b charm.TenantSpec) {
	a = charm.TenantSpec{Name: "A", Weight: 1, Quota: 2, Policy: charm.AdmitShed, QueueCap: tfQueueCap}
	b = charm.TenantSpec{Name: "B", Weight: 1, Quota: 2, GapNS: tfBucketGap, Burst: tfBucketBurst,
		Policy: charm.AdmitShed, QueueCap: tfQueueCap}
	return a, b
}

// tfPower builds the thermal experiment's package: one hot,
// high-leakage die beside three efficient ones.
func tfPower() *charm.PowerConfig {
	hot := charm.DefaultPowerModel()
	hot.Name = "hot"
	hot.EnergyPJ[charm.ComputeNS] = 12000
	hot.CThermal = 4e-5
	cool := charm.DefaultPowerModel()
	cool.Name = "cool"
	cool.EnergyPJ[charm.ComputeNS] = 1500
	cool.CThermal = 4e-5
	return &charm.PowerConfig{
		TDPWatts: 20,
		SoftC:    65, HardC: 75, ParkC: 85,
		TickNS: 20_000, ParkNS: 500_000,
		Models: []charm.PowerModel{hot, cool, cool, cool},
	}
}

func (w *tenantFlood) gen(prefix string, sc *scope) func(i int) charm.JobSpec {
	return func(i int) charm.JobSpec {
		stage := make(charm.JobStage, tfTasks)
		for k := range stage {
			stage[k] = func(ctx *charm.Ctx) { compute(ctx, sc, tfTaskNS) }
		}
		return charm.JobSpec{Name: fmt.Sprintf("%s-%d", prefix, i), Deadline: tfDeadline,
			Cost: tfTasks * tfTaskNS, Stages: []charm.JobStage{stage}}
	}
}

func (w *tenantFlood) runCell(_ int, cx *cellCtx) cellOut {
	var out cellOut
	t0 := time.Now()
	init := cx.tr.begin(spanInit, cx.id, cx.root)
	rt, m, err := newDetRuntime(topology.Synthetic(4, 2), "", 0, tfWorkers, tfPower(),
		charm.NewFaultSchedule("tenant-flood", 1).OfflineChiplet(0, w.offFrom, w.offTo))
	if err != nil {
		out.err = err
		return out
	}
	defer rt.Stop()
	rt.EnableTracing(true)
	init.end()
	out.setupNS = since(t0)

	t1 := time.Now()
	serve := cx.tr.begin(spanServe, cx.id, cx.root)
	specA, specB := tfSpecs()
	svc, err := rt.ServeJobs(charm.JobServiceOptions{
		MaxInFlight:  tfMaxInFlight,
		EvalInterval: tfEvalInterval,
		SLO:          map[int]float64{0: 0.95},
		Tenants: []charm.TenantConfig{
			{Spec: specA, Source: &charm.SpecSource{Arrivals: charm.NewTraceArrivals(w.aArr), Gen: w.gen("A", serve)}},
			{Spec: specB, Source: &charm.SpecSource{Arrivals: charm.NewTraceArrivals(w.bArr), Gen: w.gen("B", serve)}},
		},
	})
	if err != nil {
		out.err = err
		return out
	}
	rt.Start()
	svc.Drain()
	serve.end()
	out.runNS = since(t1)

	st := svc.Stats()
	ts := svc.TenantStats()
	out.jobs = st.Submitted
	out.err = tenantLedgerErr(st, ts)
	basicOut(m, &out)
	c := out.counts
	c["core.jobs_completed"] = float64(st.Completed)
	c["core.jobs_shed"] = float64(st.Shed)
	c["core.jobs_rejected"] = float64(st.Rejected)
	for _, t := range ts {
		c["tenant.rate_limited"] += float64(t.RateLimited)
		c["tenant.lease_grants"] += float64(t.LeaseGrants)
	}
	ps := rt.Power().Stats()
	for ch := range ps.SoftEvents {
		c["power.throttle_events"] += float64(ps.SoftEvents[ch] + ps.HardEvents[ch])
	}
	c["obs.spans_dropped"] = float64(rt.Tracer().DroppedSpans())

	h := sha256.New()
	fmt.Fprintf(h, "%+v|%+v|%v|%v|%+v|", st, ts, svc.LeaseOwners(), svc.DispatchGrants(), *ps)
	digestJobs(h, m, svc.Jobs())
	out.digest = sum16(h)
	return out
}

// tenantLedgerErr checks conservation on the service ledger and on every
// tenant's, and that the tenants' ledgers sum to the service totals.
func tenantLedgerErr(st charm.JobStats, ts []charm.TenantStats) error {
	if err := ledgerErr("service", st.Submitted, st.Completed, st.Rejected, st.Shed, st.Expired, st.Cancelled, st.Failed); err != nil {
		return err
	}
	var sum charm.JobStats
	for _, t := range ts {
		if err := ledgerErr("tenant "+t.Name, t.Submitted, t.Completed, t.Rejected, t.Shed, t.Expired, t.Cancelled, t.Failed); err != nil {
			return err
		}
		sum.Submitted += t.Submitted
		sum.Completed += t.Completed
		sum.Rejected += t.Rejected
		sum.Shed += t.Shed
		sum.Expired += t.Expired
		sum.Cancelled += t.Cancelled
		sum.Failed += t.Failed
	}
	if sum.Submitted != st.Submitted || sum.Completed != st.Completed || sum.Rejected != st.Rejected ||
		sum.Shed != st.Shed || sum.Expired != st.Expired || sum.Cancelled != st.Cancelled || sum.Failed != st.Failed {
		return fmt.Errorf("tenant ledgers sum to %+v, service totals are %+v", sum, st)
	}
	return nil
}
