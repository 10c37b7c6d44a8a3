package core

import (
	"errors"
	"fmt"
	"strconv"

	"charm/internal/admit"
	"charm/internal/obs"
	"charm/internal/tenant"
)

// This file is the tenant plane of the job service, its one admission and
// dispatch path. Every tenant owns a bounded queue, drained by a deficit-
// round-robin mux so each holds a weighted fair share of dispatch slots,
// and a token bucket that rate-limits arrivals under the tenant's own
// overflow policy. With JobServiceOptions.Tenants set, chiplet-group
// leases — arbitrated at every evaluation tick through the placement
// plane's liveness view — also partition the machine elastically, so a
// bursting tenant floods its own lease instead of its neighbors'.
//
// A service without declared tenants runs as one implicit tenant: weight
// 1, no rate limit, the global Policy, QueueCapacity and Source, and no
// lease table, so placement walks the whole machine and the steal fence
// stays open. Its per-tenant series go to a private registry, keeping the
// runtime's metrics free of tenant labels.
//
// All tenant state lives behind svc.mu like the rest of the service, so
// deterministic runs arbitrate identically: queues are scanned in tenant
// index order, the DRR cursor and lease table are pure state machines, and
// every tie-break is total.

// Typed multi-tenant admission errors.
var (
	// ErrUnknownTenant reports a submission naming no configured tenant.
	ErrUnknownTenant = errors.New("core: unknown tenant")
	// ErrRateLimited reports a submission refused by its tenant's token
	// bucket (Reject/Shed overflow policy, or a synchronous submission
	// under Block).
	ErrRateLimited = errors.New("core: tenant rate limit exceeded")
)

// TenantConfig declares one tenant of a multi-tenant job service.
type TenantConfig struct {
	// Spec is the tenant's admission contract (weight, quota, rate
	// limit, backpressure policy). See tenant.ParseSpec for the grammar.
	Spec tenant.Spec
	// Source is the tenant's open-loop arrival stream (nil = external
	// SubmitJob only, routed by JobSpec.Tenant).
	Source JobSource
}

// TenantStats is one tenant's admission and lease ledger.
type TenantStats struct {
	// Name is the tenant's configured name.
	Name string
	// Submitted counts every arrival presented; Admitted entered the
	// tenant's queue; Completed ran to completion; Met completed within
	// deadline.
	Submitted, Admitted, Completed, Met int64
	// Rejected, Shed, Expired, Cancelled, Failed mirror JobStats per
	// tenant. RateLimited counts arrivals refused (or shed) by the token
	// bucket; it is included in Rejected/Shed.
	Rejected, Shed, Expired, Cancelled, Failed, RateLimited int64
	// MaxQueue is the tenant queue's high-water mark.
	MaxQueue int
	// Leases is the tenant's current chiplet-lease count; Quota is its
	// configured guarantee; LeaseGrants and LeaseReclaims are lifetime
	// acquisition/loss counts.
	Leases        int
	Quota         int
	LeaseGrants   int64
	LeaseReclaims int64
}

// tenantRt is one tenant's runtime state, guarded by svc.mu.
type tenantRt struct {
	spec    tenant.Spec
	q       *admit.Queue
	bucket  *tenant.Bucket
	src     JobSource
	pending *Job // next arrival pulled from src (nil = exhausted or none)
	// bucketAt is the virtual time the next token matures for a
	// Block-policy arrival held upstream by the rate limiter (0 = none).
	bucketAt int64
	inflight int
	stats    TenantStats

	lat      *obs.Histogram
	leases   *obs.Gauge
	mAdmit   *obs.Counter
	mDone    *obs.Counter
	mShed    *obs.Counter
	mReject  *obs.Counter
	mLimited *obs.Counter
}

// setupTenants builds the tenant plane during ServeJobs: the declared
// tenants, or the implicit one when cfgs is empty. Caller has already
// defaulted the global options.
func (s *JobService) setupTenants(cfgs []TenantConfig) error {
	declared := len(cfgs) > 0
	reg := s.rt.met.reg
	if !declared {
		// The implicit tenant: weight 1, no rate limit (GapNS 0), the
		// global policy and source, and QueueCap 0 = QueueCapacity. Its
		// per-tenant series go to a private registry that stays disabled,
		// so the runtime's metrics gain no tenant labels.
		cfgs = []TenantConfig{{
			Spec:   tenant.Spec{Weight: 1, Policy: s.opts.Policy},
			Source: s.opts.Source,
		}}
		reg = obs.NewRegistry(1)
	} else if s.opts.Source != nil {
		return errors.New("core: Tenants and a global Source are mutually exclusive (give each tenant its own)")
	}
	nch := s.rt.M.Topo.NumChiplets()
	s.tenIdx = make(map[string]int, len(cfgs))
	weights := make([]int64, len(cfgs))
	quotas := make([]int, len(cfgs))
	quotaSum := 0
	for i, c := range cfgs {
		spec := c.Spec
		if declared {
			if err := spec.Validate(); err != nil {
				return err
			}
			if _, dup := s.tenIdx[spec.Name]; dup {
				return errors.New("core: duplicate tenant " + strconv.Quote(spec.Name))
			}
		}
		s.tenIdx[spec.Name] = i
		weights[i] = spec.Weight
		quotas[i] = spec.Quota
		quotaSum += spec.Quota
		qcap := spec.QueueCap
		if qcap <= 0 {
			qcap = s.opts.QueueCapacity
		}
		l := obs.Labels{"tenant": spec.Name}
		outcome := func(o string) obs.Labels {
			return obs.Labels{"tenant": spec.Name, "outcome": o}
		}
		tr := &tenantRt{
			spec:   spec,
			q:      admit.NewQueue(qcap, spec.Policy),
			bucket: tenant.NewBucket(spec.GapNS, spec.Burst),
			src:    c.Source,
			stats:  TenantStats{Name: spec.Name},
			lat: reg.Histogram("charm_tenant_job_latency_ns",
				"Virtual ns from job arrival to completion, per tenant.",
				l, latencyBounds, obs.WithExemplars()),
			leases: reg.Gauge("charm_tenant_leases",
				"Chiplet-group leases currently held by the tenant.", l, obs.Traced()),
			mAdmit: reg.Counter("charm_tenant_jobs_total",
				"Per-tenant job admission outcomes.", outcome("admitted")),
			mDone: reg.Counter("charm_tenant_jobs_total",
				"Per-tenant job admission outcomes.", outcome("completed")),
			mShed: reg.Counter("charm_tenant_jobs_total",
				"Per-tenant job admission outcomes.", outcome("shed")),
			mReject: reg.Counter("charm_tenant_jobs_total",
				"Per-tenant job admission outcomes.", outcome("rejected")),
			mLimited: reg.Counter("charm_tenant_jobs_total",
				"Per-tenant job admission outcomes.", outcome("rate-limited")),
		}
		s.tens = append(s.tens, tr)
	}
	if quotaSum > nch {
		return errors.New("core: tenant quotas oversubscribe the machine: " +
			strconv.Itoa(quotaSum) + " chiplets guaranteed, " + strconv.Itoa(nch) + " exist")
	}
	s.drr = tenant.NewDRR(weights)
	s.estBank = admit.NewEstimatorBank(len(cfgs), s.opts.EstQuantile, s.opts.EstMinSamples)
	if declared {
		s.leases = tenant.NewLeaseTable(nch, quotas, weights)
		s.publishLeaseViewLocked()
	}
	for i, tr := range s.tens {
		if tr.src != nil {
			s.advanceTenantSource(i)
		}
	}
	return nil
}

// tenantOf resolves a spec's tenant name. Empty selects tenant 0, so
// tenant-unaware callers keep working against a tenant-enabled service;
// without declared tenants the name is ignored.
func (s *JobService) tenantOf(spec *JobSpec) (int, error) {
	if spec.Tenant == "" || s.leases == nil {
		return 0, nil
	}
	i, ok := s.tenIdx[spec.Tenant]
	if !ok {
		return -1, fmt.Errorf("%w: %q", ErrUnknownTenant, spec.Tenant)
	}
	return i, nil
}

// advanceTenantSource pulls tenant i's next arrival into its pending
// cursor. Caller holds mu (or is still constructing the service).
func (s *JobService) advanceTenantSource(i int) {
	tr := s.tens[i]
	at, spec, ok := tr.src.Next()
	if !ok {
		tr.pending = nil
		return
	}
	if err := validateSpec(&spec); err != nil {
		panic(err) // a source generating invalid specs is a programming error
	}
	j := s.newJobLocked(at, spec)
	j.ten = i
	tr.pending = j
}

// admitDueTenantLocked processes tenant i's due arrivals at time now:
// token bucket first (Block holds the arrival upstream until a token
// matures; Reject/Shed refuse outright), then the tenant queue under the
// tenant's own policy. Returns true when it decided at least one arrival.
func (s *JobService) admitDueTenantLocked(i int, now int64) bool {
	tr := s.tens[i]
	did := false
	for tr.pending != nil && tr.pending.arrival <= now {
		j := tr.pending
		if tr.spec.Policy == admit.Block && tr.q.Len() >= tr.q.Cap() {
			break // held upstream until dispatch frees queue space
		}
		if !tr.bucket.Take(now) {
			if tr.spec.Policy == admit.Block {
				tr.bucketAt = tr.bucket.NextAt(now)
				break // held upstream until a token matures
			}
			s.rateLimitLocked(tr, j, now)
			did = true
			s.advanceTenantSource(i)
			continue
		}
		tr.bucketAt = 0
		s.offerTenantLocked(j)
		did = true
		s.advanceTenantSource(i)
	}
	return did
}

// rateLimitLocked refuses arrival j under tenant tr's overflow policy
// after a token-bucket miss.
func (s *JobService) rateLimitLocked(tr *tenantRt, j *Job, now int64) {
	s.stats.Submitted++
	tr.stats.Submitted++
	tr.stats.RateLimited++
	tr.mLimited.Add(0, 1)
	m := s.rt.met
	if tr.spec.Policy == admit.Shed {
		s.stats.Shed++
		tr.stats.Shed++
		m.jobsShed.Add(0, 1)
		s.finalizeLocked(j, JobShed, now)
		return
	}
	s.stats.Rejected++
	tr.stats.Rejected++
	m.jobsRejected.Add(0, 1)
	s.finalizeLocked(j, JobRejected, now)
}

// offerTenantLocked presents job j to its tenant's admission queue. The
// token bucket has already been consulted.
func (s *JobService) offerTenantLocked(j *Job) error {
	tr := s.tens[j.ten]
	s.stats.Submitted++
	tr.stats.Submitted++
	m := s.rt.met
	est := s.estBank.Estimate(j.ten, j.spec.Cost)
	if tr.q.Policy() == admit.Shed && s.thermMilli > 1000 {
		est = est * s.thermMilli / 1000
	}
	evicted, err := tr.q.Offer(j.arrival, admit.Entry{
		Seq:      j.id,
		Priority: j.spec.Priority,
		Arrival:  j.arrival,
		Deadline: j.deadline,
		Est:      est,
		Payload:  j,
	})
	if evicted != nil {
		v := evicted.Payload.(*Job)
		s.stats.Shed++
		tr.stats.Shed++
		tr.mShed.Add(0, 1)
		m.jobsShed.Add(0, 1)
		s.finalizeLocked(v, JobShed, j.arrival)
	}
	switch {
	case err == nil:
		s.stats.Admitted++
		tr.stats.Admitted++
		tr.mAdmit.Add(0, 1)
		m.jobsAdmitted.Add(0, 1)
		if n := tr.q.Len(); n > tr.stats.MaxQueue {
			tr.stats.MaxQueue = n
		}
		if n := s.backlogLocked(); n > s.stats.MaxQueue {
			s.stats.MaxQueue = n
		}
		m.jobQueueDepth.Set(0, int64(s.backlogLocked()))
		return nil
	case err == admit.ErrHopeless:
		s.stats.Shed++
		tr.stats.Shed++
		tr.mShed.Add(0, 1)
		m.jobsShed.Add(0, 1)
		s.finalizeLocked(j, JobShed, j.arrival)
	default: // ErrQueueFull, ErrWouldBlock
		s.stats.Rejected++
		tr.stats.Rejected++
		tr.mReject.Add(0, 1)
		m.jobsRejected.Add(0, 1)
		s.finalizeLocked(j, JobRejected, j.arrival)
	}
	return err
}

// backlogLocked sums the tenant queues.
func (s *JobService) backlogLocked() int {
	n := 0
	for _, tr := range s.tens {
		n += tr.q.Len()
	}
	return n
}

// pumpTenants is the pump body: per-tenant admission, the shared periodic
// evaluation, then DRR-fair dispatch. Caller holds mu.
func (s *JobService) pumpTenants(now int64) bool {
	did := false

	// 1. Admission, tenant by tenant in index order.
	for i := range s.tens {
		if s.admitDueTenantLocked(i, now) {
			did = true
		}
	}

	// 2. Periodic evaluation: telemetry, breakers, thermal forecast, and
	// lease arbitration.
	if now-s.lastEval >= s.opts.EvalInterval {
		s.evalLocked(now)
		s.evalSLOLocked(now)
		did = true
	}

	// 3. Dispatch: the DRR mux grants one slot at a time, so over any
	// backlogged window each tenant's share of dispatch slots tracks its
	// weight regardless of how deep any one queue is.
	m := s.rt.met
	for s.inflight < s.opts.MaxInFlight {
		ti := s.drr.Next(func(i int) bool { return s.tens[i].q.Len() > 0 })
		if ti < 0 {
			break
		}
		tr := s.tens[ti]
		e, ok := tr.q.Pop()
		if !ok {
			break
		}
		did = true
		m.jobQueueDepth.Set(0, int64(s.backlogLocked()))
		j := e.Payload.(*Job)
		if j.cancelled.Load() {
			s.stats.Cancelled++
			tr.stats.Cancelled++
			m.jobsCancelled.Add(0, 1)
			s.finalizeLocked(j, JobCancelled, now)
			continue
		}
		if tr.q.Policy() == admit.Shed {
			if j.deadline != 0 && j.deadline <= now {
				s.stats.Expired++
				tr.stats.Expired++
				m.jobsExpired.Add(0, 1)
				s.finalizeLocked(j, JobExpired, now)
				continue
			}
			est := s.estBank.Estimate(ti, j.spec.Cost)
			if s.thermMilli > 1000 {
				est = est * s.thermMilli / 1000
			}
			if j.deadline != 0 && j.deadline-now < est {
				s.stats.Shed++
				tr.stats.Shed++
				tr.mShed.Add(0, 1)
				m.jobsShed.Add(0, 1)
				s.finalizeLocked(j, JobShed, now)
				continue
			}
		}
		s.startLocked(j, now)
	}

	// 4. Dispatch may have freed queue space a Block-policy arrival was
	// waiting on.
	for i := range s.tens {
		if s.admitDueTenantLocked(i, now) {
			did = true
		}
	}
	return did
}

// evalTenantsLocked arbitrates the chiplet-group leases at an evaluation
// tick: chiplets live (hosting at least one worker on a live core) flow to
// demanding tenants — quota first, then weight-proportional growth — and
// leases on parked or offlined chiplets are voided so the tenant's share
// re-homes instead of starving. Emits a SpanLease per ownership change.
func (s *JobService) evalTenantsLocked(now int64) {
	topo := s.rt.M.Topo
	live := make([]bool, topo.NumChiplets())
	plan := s.rt.opts.Faults
	for _, w := range s.rt.workers {
		c := w.Core()
		if plan == nil || !plan.CoreDown(c, now) {
			live[topo.ChipletOf(c)] = true
		}
	}
	demand := make([]bool, len(s.tens))
	for i, tr := range s.tens {
		demand[i] = tr.q.Len() > 0 || tr.inflight > 0 ||
			(tr.pending != nil && tr.pending.arrival <= now)
	}
	evs := s.leases.Rebalance(live, demand)
	if len(evs) > 0 {
		s.publishLeaseViewLocked()
		if tr := s.rt.tracer; tr.Enabled() {
			for _, e := range evs {
				tr.Emit(s.trShard, obs.Span{Kind: obs.SpanLease,
					Start: now, End: now, Chiplet: int32(e.Chiplet), Stage: -1,
					Arg: int64(e.To), Arg2: int64(e.From)})
			}
		}
		for i, tr := range s.tens {
			tr.leases.Set(0, int64(s.leases.Held(i)))
		}
	}
}

// TenantStats returns every tenant's ledger in configuration order (nil
// without declared tenants).
func (s *JobService) TenantStats() []TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.leases == nil {
		return nil
	}
	out := make([]TenantStats, len(s.tens))
	for i, tr := range s.tens {
		st := tr.stats
		st.Quota = tr.spec.Quota
		st.Leases = s.leases.Held(i)
		st.LeaseGrants = s.leases.Grants(i)
		st.LeaseReclaims = s.leases.Reclaims(i)
		out[i] = st
	}
	return out
}

// TenantNames returns the configured tenant names in index order (nil
// without declared tenants).
func (s *JobService) TenantNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.leases == nil {
		return nil
	}
	names := make([]string, len(s.tens))
	for i, tr := range s.tens {
		names[i] = tr.spec.Name
	}
	return names
}

// LeaseOwners returns the chiplet→tenant-index ownership map (-1 = free;
// nil without declared tenants).
func (s *JobService) LeaseOwners() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.leases == nil {
		return nil
	}
	return s.leases.Owners()
}

// DispatchGrants returns the DRR mux's cumulative dispatch slots per
// tenant (nil without declared tenants).
func (s *JobService) DispatchGrants() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.leases == nil {
		return nil
	}
	return s.drr.Grants()
}

// publishLeaseViewLocked republishes the lock-free ownership snapshot the
// steal fence reads.
func (s *JobService) publishLeaseViewLocked() {
	owners := s.leases.Owners()
	view := make([]int32, len(owners))
	for ch, o := range owners {
		view[ch] = int32(o)
	}
	s.leaseView.Store(&view)
}

// stealAllowed is the work-stealing lease fence, consulted lock-free on
// the steal path: a thief on chiplet ch may not import a task of a tenant
// that does not own ch. Free chiplets (owner -1), non-job tasks and
// services without declared tenants (no published view) are unfenced, and
// the caller bypasses the fence for blocked victims — rescue beats
// isolation, exactly like the pinned-task escape hatch.
func (s *JobService) stealAllowed(ch int, t *Task) bool {
	if t.job == nil {
		return true
	}
	p := s.leaseView.Load()
	if p == nil || ch < 0 || ch >= len(*p) {
		return true
	}
	owner := (*p)[ch]
	return owner < 0 || owner == int32(t.job.ten)
}

// updateThermLocked refreshes the thermal shed-pressure factor from the
// power plane's temperature forecast: with the horizon set a few governor
// ticks out, the fraction of chiplets forecast to cross the soft
// setpoint scales Shed-policy service estimates toward the soft-throttle
// slowdown — so deadline-hopeless jobs are shed before the throttle
// cliff, not discovered after it. A pure function of the published
// snapshot, so deterministic replays recompute it identically.
func (s *JobService) updateThermLocked() {
	pw := s.rt.power
	if pw == nil {
		s.thermMilli = 1000
		return
	}
	fc := pw.ForecastMilliC(4 * pw.Tick())
	soft := pw.SoftMilliC()
	over := 0
	for _, f := range fc {
		if f >= soft {
			over++
		}
	}
	factor := pw.SoftFactorMilli()
	if over == 0 || len(fc) == 0 || factor <= 1000 {
		s.thermMilli = 1000
		return
	}
	s.thermMilli = 1000 + (factor-1000)*int64(over)/int64(len(fc))
}
