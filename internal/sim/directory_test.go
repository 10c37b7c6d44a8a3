package sim

import (
	"sync"
	"testing"

	"charm/internal/cache"
	"charm/internal/mem"
	"charm/internal/pmu"
	"charm/internal/rng"
	"charm/internal/topology"
)

// accessOp is one Machine.Access call of a generated sequence.
type accessOp struct {
	core  topology.CoreID
	off   int64
	size  int64
	write bool
}

// randomOps draws n accesses of 1-2048 bytes at uniform offsets of a
// regionSize region from uniform cores, one in three a write.
func randomOps(seed uint64, cores int, regionSize int64, n int) []accessOp {
	s := seed
	ops := make([]accessOp, n)
	for i := range ops {
		ops[i].core = topology.CoreID(rng.Intn(&s, cores))
		ops[i].off = int64(rng.Uint64n(&s, uint64(regionSize-2048)))
		ops[i].size = int64(rng.Uint64n(&s, 2048)) + 1
		ops[i].write = rng.Uint64n(&s, 3) == 0
	}
	return ops
}

// streamOps is the eviction-heavy cross-chiplet stream: 32 KiB reads that
// walk the region chunk by chunk, each chunk read by two chiplets in turn
// (the second read is a cache-to-cache fill) while the chiplets rotate
// (shifting by one every 2×chiplets ops, so the reading pairs vary across
// quadrants and sockets). Every chiplet sweeps far more than its L3 and
// evicts the previous sweep's lines page-sequentially. One op in eight is
// a write.
func streamOps(topo *topology.Topology, regionSize int64, n int) []accessOp {
	const chunk = 32 << 10
	chiplets, per := topo.NumChiplets(), topo.CoresPerChiplet
	ops := make([]accessOp, n)
	for k := range ops {
		ops[k] = accessOp{
			core:  topology.CoreID((k+k/(2*chiplets))%chiplets*per + k/chiplets%per),
			off:   int64(k/2) * chunk % regionSize,
			size:  chunk,
			write: k%8 == 7,
		}
	}
	return ops
}

// TestDirectoryMatchesScanState drives randomized and streaming access
// sequences and repeatedly asserts the exactness invariant: the
// directory's presence bitmask equals a brute-force scan of every
// chiplet's tag array, bit for bit. The directory is a mirror, not an
// approximation.
func TestDirectoryMatchesScanState(t *testing.T) {
	for _, tc := range []struct {
		name       string
		topo       *topology.Topology
		shift      uint
		stream     bool
		regionSize int64
	}{
		{"dual-2x4", topology.SyntheticDual(2, 4), 0, false, 1 << 16},
		{"wide-16x1", topology.Synthetic(16, 1), 0, false, 1 << 16},
		{"sampled", topology.SyntheticDual(2, 4), 2, false, 1 << 16},
		{"stream-4x2", topology.Synthetic(4, 2), 0, true, 512 << 10},
		{"stream-dual-sampled", topology.SyntheticDual(2, 4), 2, true, 512 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(Config{Topo: tc.topo, SampleShift: tc.shift})
			if m.dir == nil {
				t.Fatal("directory must be enabled by default")
			}
			region := m.Space.Alloc(tc.regionSize, mem.Interleave, 0)
			firstLine := uint64(region) >> cache.LineShift
			lastLine := (uint64(region) + uint64(tc.regionSize) - 1) >> cache.LineShift
			check := func() {
				t.Helper()
				scratch := &dirCache{}
				for line := firstLine; line <= lastLine; line++ {
					mask := m.dir.holders(line, scratch)
					for ch := range m.l3 {
						scan := m.l3[ch].Contains(line)
						dir := mask&(1<<uint(ch)) != 0
						if scan != dir {
							t.Fatalf("line %#x chiplet %d: directory=%v tag scan=%v", line, ch, dir, scan)
						}
					}
				}
			}
			ops := randomOps(0xC0FFEE, m.Topo.NumCores(), tc.regionSize, 5000)
			if tc.stream {
				ops = streamOps(tc.topo, tc.regionSize, 240)
			}
			var now int64
			var evictions int64
			for i, op := range ops {
				now += m.Access(op.core, now, region+mem.Addr(op.off), op.size, op.write)
				if i%(len(ops)/10) == len(ops)/10-1 {
					check()
				}
			}
			check()
			for ch := range m.l3 {
				evictions += m.l3[ch].Evictions()
			}
			if tc.stream && evictions == 0 {
				t.Fatal("stream case must evict")
			}
			m.FlushCaches()
			if n := m.dir.lines(); n != 0 {
				t.Fatalf("directory still tracks %d lines after FlushCaches", n)
			}
		})
	}
}

// TestDirectoryEquivalentToScan runs identical access sequences on a
// directory machine and a scan machine and requires identical per-access
// costs and identical PMU counters: the directory changes the complexity
// of coherence lookups, never their outcome. The stream case is the
// eviction-heavy cross-chiplet stream, which exercises the victim page
// cache and the chiplet-pair tables on every line.
func TestDirectoryEquivalentToScan(t *testing.T) {
	for _, tc := range []struct {
		name       string
		topo       *topology.Topology
		mlp        int64
		regionSize int64
		ops        func(topo *topology.Topology, regionSize int64) []accessOp
	}{
		{"random", topology.SyntheticDual(2, 4), 0, 1 << 16, func(topo *topology.Topology, size int64) []accessOp {
			return randomOps(7, topo.NumCores(), size, 8000)
		}},
		{"stream", topology.Synthetic(4, 2), 32, 512 << 10, func(topo *topology.Topology, size int64) []accessOp {
			return streamOps(topo, size, 400)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ops := tc.ops(tc.topo, tc.regionSize)
			run := func(noDir bool) ([]int64, [][]int64) {
				m := New(Config{Topo: tc.topo, NoDirectory: noDir, MLP: tc.mlp})
				if m.DirectoryEnabled() == noDir {
					t.Fatalf("DirectoryEnabled() = %v with NoDirectory=%v", m.DirectoryEnabled(), noDir)
				}
				region := m.Space.Alloc(tc.regionSize, mem.Interleave, 0)
				var now int64
				costs := make([]int64, 0, len(ops))
				for _, op := range ops {
					c := m.Access(op.core, now, region+mem.Addr(op.off), op.size, op.write)
					costs = append(costs, c)
					now += c
				}
				cores := m.Topo.NumCores()
				counters := make([][]int64, cores)
				for c := 0; c < cores; c++ {
					counters[c] = make([]int64, pmu.NumEvents)
					for e := 0; e < pmu.NumEvents; e++ {
						counters[c][e] = m.PMU.Read(c, pmu.Event(e))
					}
				}
				return costs, counters
			}
			dirCosts, dirPMU := run(false)
			scanCosts, scanPMU := run(true)
			for i := range dirCosts {
				if dirCosts[i] != scanCosts[i] {
					t.Fatalf("access %d: directory cost %d != scan cost %d", i, dirCosts[i], scanCosts[i])
				}
			}
			for c := range dirPMU {
				for e := range dirPMU[c] {
					if dirPMU[c][e] != scanPMU[c][e] {
						t.Fatalf("core %d event %v: directory %d != scan %d",
							c, pmu.Event(e), dirPMU[c][e], scanPMU[c][e])
					}
				}
			}
		})
	}
}

// TestDirCacheSharedIsTearProof: two goroutines share one page cache —
// two host workers briefly running on one simulated core — and alternate
// between pages. Every page the cache hands back must be the registry's
// page for the requested line and its key must cover that line; a cache
// of two plain words could pair one page's key with another's masks. Run
// under -race (make verify does) it also proves the entry is race-free.
func TestDirCacheSharedIsTearProof(t *testing.T) {
	d := newDirectory()
	var c dirCache
	iters := 20000
	if testing.Short() {
		iters = 2000
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				pk := uint64(2*(i%4) + g) // goroutine g walks its own pages
				line := pk<<dirPageShift | uint64(i)%dirPageLines
				p := d.pageFor(line, true, &c)
				if p.key != line>>dirPageShift || p != d.page(line, false) {
					t.Errorf("goroutine %d: line %#x got page with key %#x", g, line, p.key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// conflictEvict fills victim's L3 set from core filler until victim's line
// is evicted by capacity pressure, and returns the virtual time after the
// fills. The filler lines alias the same L3 set (stride = numSets lines).
func conflictEvict(t *testing.T, m *Machine, filler topology.CoreID, region mem.Addr, line uint64, now int64) int64 {
	t.Helper()
	l3 := m.L3(m.Topo.ChipletOf(filler))
	stride := uint64(l3.Sets()) << cache.LineShift
	for k := 1; k <= l3.Ways()+2; k++ {
		a := region + mem.Addr(uint64(k)*stride)
		now += m.Read(filler, now, a, 64)
	}
	if l3.Contains(line) {
		t.Fatal("capacity pressure failed to evict the victim line")
	}
	return now
}

// TestEvictionLeavesDirectory checks eviction propagation: a line evicted
// from an L3 by capacity pressure must drop out of the directory, stop
// being found by closestHolder (the next remote access goes to DRAM, not
// cache-to-cache), and stop validating the L2-inclusivity fast path even
// while the stale L2 copy survives.
func TestEvictionLeavesDirectory(t *testing.T) {
	// Synthetic(2,2): chiplet 0 = cores {0,1}, chiplet 1 = cores {2,3};
	// 64 KiB 8-way L3 slices, 8 KiB 4-way L2s, one NUMA node.
	m := New(Config{Topo: topology.Synthetic(2, 2)})
	region := m.Space.Alloc(1<<20, mem.Bind, 0)
	line := uint64(region) >> cache.LineShift

	// Part 1: closestHolder must not find an evicted line.
	now := m.Read(0, 0, region, 64) // chiplet 0 caches the line
	if !m.dir.has(line, 0, &dirCache{}) {
		t.Fatal("directory must track the filled line")
	}
	// Core 1 shares chiplet 0's L3: its conflict fills evict the line from
	// L3(0) without touching core 0's L2.
	now = conflictEvict(t, m, 1, region, line, now)
	if m.dir.has(line, 0, &dirCache{}) {
		t.Fatal("evicted line must drop out of the directory")
	}
	// Chiplet 1's read must fill from DRAM — there is no holder left.
	now += m.Read(2, now, region, 64)
	if got := m.PMU.Read(2, pmu.FillL3RemoteNear); got != 0 {
		t.Errorf("closestHolder found an evicted line: %d c2c fills", got)
	}
	if got := m.PMU.Read(2, pmu.FillDRAMLocal); got != 1 {
		t.Errorf("expected a DRAM refill after eviction, got %d", got)
	}

	// Part 2: the L2-inclusivity fast path must reject a stale L2 copy.
	m2 := New(Config{Topo: topology.Synthetic(2, 2)})
	region2 := m2.Space.Alloc(1<<20, mem.Bind, 0)
	line2 := uint64(region2) >> cache.LineShift
	now = m2.Read(0, 0, region2, 64) // line in L2(0) and L3(0)
	now = conflictEvict(t, m2, 1, region2, line2, now)
	if !m2.L2Of(0).Contains(line2) {
		t.Fatal("test setup: core 0's L2 copy must survive the L3 conflict fills")
	}
	hitsBefore := m2.PMU.Read(0, pmu.FillL2)
	m2.Read(0, now, region2, 64)
	if got := m2.PMU.Read(0, pmu.FillL2); got != hitsBefore {
		t.Errorf("stale L2 hit counted after L3 eviction: %d -> %d", hitsBefore, got)
	}
	if got := m2.PMU.Read(0, pmu.FillDRAMLocal); got != 2 {
		t.Errorf("expected a DRAM refill through the broken inclusivity, got %d", got)
	}
}

// TestMachineAccessRaceStress hammers Machine.Access from one goroutine
// per simulated core over one shared region — the concurrency contract of
// the machine — and checks every returned cost is positive. Run under
// -race (the Makefile verify target does) it also proves the sharded
// directory introduces no data races.
func TestMachineAccessRaceStress(t *testing.T) {
	m := New(Config{Topo: topology.SyntheticDual(2, 4)})
	const regionSize = 64 << 10
	region := m.Space.Alloc(regionSize, mem.Interleave, 0)
	iters := 4000
	if testing.Short() {
		iters = 500
	}
	var wg sync.WaitGroup
	for c := 0; c < m.Topo.NumCores(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := rng.Seed(42, uint64(c))
			var now int64
			for i := 0; i < iters; i++ {
				off := int64(rng.Uint64n(&s, regionSize-2048))
				size := int64(rng.Uint64n(&s, 2048)) + 1
				write := rng.Uint64n(&s, 4) == 0
				cost := m.Access(topology.CoreID(c), now, region+mem.Addr(off), size, write)
				if cost <= 0 {
					t.Errorf("core %d op %d: non-positive cost %d", c, i, cost)
					return
				}
				now += cost
			}
		}(c)
	}
	wg.Wait()
	// After the dust settles, every directory bit must refer to a line the
	// corresponding tag array could plausibly hold; exact equality is only
	// guaranteed single-threaded, but the directory must never be left
	// tracking lines outside the accessed region.
	first := uint64(region) >> cache.LineShift
	last := (uint64(region) + regionSize - 1) >> cache.LineShift
	m.dir.forEach(func(line, mask uint64) {
		if line < first || line > last {
			t.Errorf("directory tracks line %#x outside the accessed region [%#x,%#x]", line, first, last)
		}
	})
}
