package main

import (
	"math/rand/v2"
	"sort"
	"time"

	"charm"
	"charm/internal/cache"
	"charm/internal/fabric"
	"charm/internal/mem"
	"charm/internal/pmu"
	"charm/internal/sim"
	"charm/internal/tenant"
	"charm/internal/topology"
)

// The layer probes time direct calls into one layer's public function, in
// one goroutine, fed from the inputs the workloads generate for the seed.
// Each probe warms its structures with one untimed pass, then reports the
// median ns per call over probePasses timed passes.
const probePasses = 5

// probeSink keeps probe results alive so no call is optimized away.
var probeSink int64

func probeNS(pass func() int) float64 {
	pass()
	xs := make([]float64, probePasses)
	for i := range xs {
		t0 := time.Now()
		n := pass()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(xs)
}

// streamRead is one ctx.Read of fabric-stream: the issuing core and the
// offset into the shared array.
type streamRead struct {
	core topology.CoreID
	off  int64
}

// streamSequence replays fabric-stream's memory-job reads in job order,
// assigning tasks to cores round-robin (the probe has no dispatcher).
func streamSequence(w *fabricStream, cores int) []streamRead {
	var seq []streamRead
	task := 0
	for i := 0; i < fsJobs; i += 2 {
		for k := 0; k < fsTasks; k++ {
			core := topology.CoreID(task % cores)
			task++
			for s := 0; s < fsSweeps; s++ {
				for off := int64(0); off < fsShared; off += fsChunk {
					seq = append(seq, streamRead{core, (w.starts[i][k] + off) % fsShared})
				}
			}
		}
	}
	return seq
}

// streamTopo builds fabric-stream's homogeneous 4x2 package.
func streamTopo() *topology.Topology {
	sp, err := topology.ParseTopoSpec("mesh:4x2")
	if err != nil {
		panic(err)
	}
	t, err := sp.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// milanTopo is graph-steal's machine.
func milanTopo() *topology.Topology { return charm.AMDMilan().Scaled(gsCacheScale) }

// runProbes runs every layer probe and returns its metrics.
func runProbes(seed uint64) map[string]metric {
	out := map[string]metric{}
	ns := func(name string, v float64) { out[name] = metric{v, "ns"} }
	fs := newFabricStream(seed)
	tf := newTenantFlood(seed)

	st := streamTopo()
	seq := streamSequence(fs, st.NumCores())
	ns("sim.access_hit_ns", probeAccessHit(st, seq))
	miss, dramGap, nodes := probeAccessMiss(seed)
	ns("sim.access_miss_ns", miss)
	ns("mem.dram_charge_ns", probeDRAM(dramGap, nodes))
	lookup, insert := probeCache(st, seq)
	ns("cache.lookup_ns", lookup)
	ns("cache.insert_ns", insert)
	l3, class := probeTopology([]*topology.Topology{st, milanTopo()})
	ns("topology.l3_hit_latency_ns", l3)
	ns("topology.class_of_ns", class)
	for _, k := range fabric.Kinds() {
		ns("fabric.charge_ns."+k.String(), probeFabric(k, st, seq))
	}
	drr, bucket, rebalance := probeTenant(tf)
	ns("tenant.drr_next_ns", drr)
	ns("tenant.bucket_take_ns", bucket)
	ns("tenant.rebalance_ns", rebalance)
	return out
}

// probeAccessHit times Machine.Access over fabric-stream's chunk sequence
// once the package's L3s hold the shared array, so the reads are
// cross-chiplet hits as in the workload.
func probeAccessHit(t *topology.Topology, seq []streamRead) float64 {
	m := sim.New(sim.Config{Topo: t, Fabric: fabric.KindMesh, MLP: fsMLP})
	base := m.Space.Alloc(fsShared, mem.Bind, 0)
	clock := make([]int64, t.NumCores())
	return probeNS(func() int {
		for _, r := range seq {
			c := clock[r.core]
			clock[r.core] = c + m.Access(r.core, c, base+mem.Addr(r.off), fsChunk, false)
		}
		return len(seq)
	})
}

// probeAccessMiss times 8-byte random writes over a table four times the
// aggregate L3 of graph-steal's machine, so nearly every write misses to
// DRAM and evicts. It also returns the virtual ns between DRAM fills and
// the home node of every write, which feed the DRAM probe.
func probeAccessMiss(seed uint64) (float64, int64, []topology.NodeID) {
	t := milanTopo()
	m := sim.New(sim.Config{Topo: t, SampleShift: gsSampleShift})
	size := 4 * int64(t.NumChiplets()) * t.L3PerChiplet
	base := m.Space.Alloc(size, mem.Interleave, 0)
	r := rand.New(rand.NewPCG(seed, 0x6d697373))
	const n = 1 << 16
	offs := make([]int64, n)
	nodes := make([]topology.NodeID, n)
	for i := range offs {
		offs[i] = r.Int64N(size/8) * 8
		core := topology.CoreID(i % gsWorkers)
		nodes[i] = m.Space.HomeOf(base+mem.Addr(offs[i]), t.NodeOfCore(core))
	}
	clock := make([]int64, t.NumCores())
	v := probeNS(func() int {
		for i, off := range offs {
			core := topology.CoreID(i % gsWorkers)
			c := clock[core]
			clock[core] = c + m.Access(core, c, base+mem.Addr(off), 8, true)
		}
		return n
	})
	var span int64
	for _, c := range clock {
		span = max(span, c)
	}
	fills := m.PMU.Total(pmu.FillDRAMLocal) + m.PMU.Total(pmu.FillDRAMRemote)
	gap := int64(1)
	if fills > 0 {
		gap = max(span*m.SampleFactor()/fills, 1)
	}
	return v, gap, nodes
}

// probeDRAM times DRAM.Charge of one sampled line per call at the miss
// probe's fill rate and home nodes.
func probeDRAM(gap int64, nodes []topology.NodeID) float64 {
	t := milanTopo()
	d := mem.NewDRAM(t, 0)
	xfer := int64(cache.LineSize) << gsSampleShift
	var now int64
	return probeNS(func() int {
		for _, n := range nodes {
			now += gap
			probeSink += d.Charge(n, now, xfer)
		}
		return len(nodes)
	})
}

// probeCache times Lookup and Insert on one L3 of fabric-stream's
// geometry, fed every line of the chunk sequence in order.
func probeCache(t *topology.Topology, seq []streamRead) (lookup, insert float64) {
	const linesPerChunk = fsChunk / cache.LineSize
	lines := make([]uint64, 0, len(seq)*linesPerChunk)
	for _, r := range seq {
		first := uint64(r.off) / cache.LineSize
		for l := uint64(0); l < linesPerChunk; l++ {
			lines = append(lines, (first+l)%(fsShared/cache.LineSize))
		}
	}
	c := cache.New(t.L3PerChiplet, t.L3Ways, 0)
	var now int64
	insert = probeNS(func() int {
		for _, l := range lines {
			now++
			c.Insert(l, now)
		}
		return len(lines)
	})
	lookup = probeNS(func() int {
		for _, l := range lines {
			now++
			if c.Lookup(l, now) {
				probeSink++
			}
		}
		return len(lines)
	})
	return lookup, insert
}

// probeTopology times L3HitLatency over every (core, chiplet) pair and
// ClassOf over every (core, core) pair of the given machines.
func probeTopology(ts []*topology.Topology) (l3, class float64) {
	const reps = 8
	l3 = probeNS(func() int {
		n := 0
		for r := 0; r < reps; r++ {
			for _, t := range ts {
				for c := 0; c < t.NumCores(); c++ {
					for ch := 0; ch < t.NumChiplets(); ch++ {
						probeSink += t.L3HitLatency(topology.CoreID(c), topology.ChipletID(ch))
						n++
					}
				}
			}
		}
		return n
	})
	class = probeNS(func() int {
		n := 0
		for r := 0; r < reps; r++ {
			for _, t := range ts {
				for a := 0; a < t.NumCores(); a++ {
					for b := 0; b < t.NumCores(); b++ {
						probeSink += int64(t.ClassOf(topology.CoreID(a), topology.CoreID(b)))
						n++
					}
				}
			}
		}
		return n
	})
	return l3, class
}

// probeFabric times ChargeTransfer of one line per call over
// fabric-stream's src/dst mix: the destination is the reading core's
// chiplet, the source the chiplet the chunk's offset interleaves to.
func probeFabric(k fabric.Kind, t *topology.Topology, seq []streamRead) float64 {
	f := fabric.Build(k, t, 0)
	nch := int64(t.NumChiplets())
	const reps = 32
	var now int64
	return probeNS(func() int {
		for r := 0; r < reps; r++ {
			for _, s := range seq {
				now += 16
				src := topology.ChipletID((s.off / fsChunk) % nch)
				probeSink += f.ChargeTransfer(src, t.ChipletOf(s.core), now, cache.LineSize)
			}
		}
		return reps * len(seq)
	})
}

// probeTenant times the isolation plane's three decisions on
// tenant-flood's specs and arrival streams: DRR.Next with the backlog the
// merged arrival order implies, Bucket.Take at tenant B's arrival times,
// and LeaseTable.Rebalance at every evaluation tick of the run, with the
// chiplet-offline window and each tenant's demand in that tick.
func probeTenant(w *tenantFlood) (drr, bucket, rebalance float64) {
	a, b := tfSpecs()
	type arrival struct {
		at  int64
		ten int
	}
	merged := make([]arrival, 0, len(w.aArr)+len(w.bArr))
	for _, at := range w.aArr {
		merged = append(merged, arrival{at, 0})
	}
	for _, at := range w.bArr {
		merged = append(merged, arrival{at, 1})
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].at < merged[j].at })

	d := tenant.NewDRR([]int64{a.Weight, b.Weight})
	n := len(merged)
	drr = probeNS(func() int {
		for s := 0; s < n; s++ {
			probeSink += int64(d.Next(func(i int) bool {
				return merged[s].ten == i || merged[(s+1)%n].ten == i
			}))
		}
		return n
	})

	bk := tenant.NewBucket(b.GapNS, b.Burst)
	var offset int64
	bucket = probeNS(func() int {
		for _, at := range w.bArr {
			if bk.Take(offset + at) {
				probeSink++
			}
		}
		offset += w.bArr[len(w.bArr)-1] + 1
		return len(w.bArr)
	})

	type tick struct{ live, demand []bool }
	var ticks []tick
	end := merged[n-1].at
	for t, i := int64(0), 0; t <= end; t += tfEvalInterval {
		tk := tick{live: []bool{t < w.offFrom || t >= w.offTo, true, true, true}, demand: make([]bool, 2)}
		for ; i < n && merged[i].at <= t; i++ {
			tk.demand[merged[i].ten] = true
		}
		ticks = append(ticks, tk)
	}
	lt := tenant.NewLeaseTable(4, []int{a.Quota, b.Quota}, []int64{a.Weight, b.Weight})
	rebalance = probeNS(func() int {
		for _, tk := range ticks {
			probeSink += int64(len(lt.Rebalance(tk.live, tk.demand)))
		}
		return len(ticks)
	})
	return drr, bucket, rebalance
}
