package cache

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/trace"
)

func smallCache(t *testing.T, policy string) *Cache {
	t.Helper()
	c, err := NewCache(config.CacheLevel{
		Name: "test", SizeBytes: 8 * 64, Ways: 2, LineBytes: 64,
		Policy: policy, LatencyCyc: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCacheRejectsBadGeometry(t *testing.T) {
	cases := []config.CacheLevel{
		{Name: "badline", SizeBytes: 1024, Ways: 2, LineBytes: 48},
		{Name: "badways", SizeBytes: 192, Ways: 4, LineBytes: 64},
		{Name: "badsets", SizeBytes: 3 * 64 * 2, Ways: 2, LineBytes: 64},
		{Name: "zeroways", SizeBytes: 1024, Ways: 0, LineBytes: 64},
	}
	for _, cfg := range cases {
		if _, err := NewCache(cfg); err == nil {
			t.Errorf("NewCache(%q) accepted invalid geometry", cfg.Name)
		}
	}
}

// TestNewCacheWayLimits: RRIP levels stop at config.MaxRRIPWays, the
// number of 2-bit RRPVs one set word holds; LRU has no such ceiling.
func TestNewCacheWayLimits(t *testing.T) {
	cases := []struct {
		policy string
		ways   int
		ok     bool
	}{
		{"SRRIP", 32, true},
		{"DRRIP", 32, true},
		{"SRRIP", 64, false},
		{"DRRIP", 64, false},
		{"LRU", 64, true},
		{"LRU", 512, true},
	}
	for _, tc := range cases {
		cfg := config.CacheLevel{Name: "wide", SizeBytes: uint64(tc.ways) * 4 * 64,
			Ways: tc.ways, LineBytes: 64, Policy: tc.policy}
		_, err := NewCache(cfg)
		if (err == nil) != tc.ok {
			t.Errorf("NewCache(%s, %d ways) error = %v, want ok=%v", tc.policy, tc.ways, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "wide") {
			t.Errorf("error %q does not name the cache", err)
		}
	}
}

func TestHitAfterFill(t *testing.T) {
	c := smallCache(t, "LRU")
	a := addr.Addr(0x1000)
	if hit, _, _ := c.Access(a, false); hit {
		t.Error("cold access hit")
	}
	if hit, _, _ := c.Access(a, false); !hit {
		t.Error("second access missed")
	}
	if hit, _, _ := c.Access(a+63, false); !hit {
		t.Error("same-line access missed")
	}
	if hit, _, _ := c.Access(a+64, false); hit {
		t.Error("next-line access hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 hits 2 misses", st)
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	c := smallCache(t, "LRU") // 4 sets x 2 ways
	// Three lines mapping to set 0: line numbers 0, 4, 8 (4 sets).
	a0, a4, a8 := addr.Addr(0), addr.Addr(4*64), addr.Addr(8*64)
	c.Access(a0, false)
	c.Access(a4, false)
	c.Access(a0, false) // a0 now MRU
	_, ev, evicted := c.Access(a8, false)
	if !evicted {
		t.Fatal("full set did not evict")
	}
	if ev.Addr != a4 {
		t.Errorf("evicted %#x, want %#x (LRU)", uint64(ev.Addr), uint64(a4))
	}
	if !c.Contains(a0) || c.Contains(a4) || !c.Contains(a8) {
		t.Error("residency after eviction wrong")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := smallCache(t, "LRU")
	a0, a4, a8 := addr.Addr(0), addr.Addr(4*64), addr.Addr(8*64)
	c.Access(a0, true) // dirty
	c.Access(a4, false)
	c.Access(a8, false) // evicts a0 (LRU), dirty
	st := c.Stats()
	if st.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", st.Writebacks)
	}
}

func TestSRRIPHitPromotion(t *testing.T) {
	c := smallCache(t, "SRRIP")
	a0, a4, a8 := addr.Addr(0), addr.Addr(4*64), addr.Addr(8*64)
	c.Access(a0, false)
	c.Access(a4, false)
	c.Access(a0, false) // promote a0 to RRPV 0
	_, ev, evicted := c.Access(a8, false)
	if !evicted {
		t.Fatal("no eviction from full set")
	}
	if ev.Addr != a4 {
		t.Errorf("SRRIP evicted %#x, want non-promoted %#x", uint64(ev.Addr), uint64(a4))
	}
}

func TestDRRIPBehavesAsCache(t *testing.T) {
	c, err := NewCache(config.CacheLevel{
		Name: "drrip", SizeBytes: 64 * addr.KiB, Ways: 8, LineBytes: 64,
		Policy: "DRRIP", LatencyCyc: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A working set that fits must eventually hit ~100%.
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < 256; i++ {
			c.Access(addr.Addr(i*64), false)
		}
	}
	st := c.Stats()
	if st.Hits < 3*256 {
		t.Errorf("DRRIP resident working set hits = %d, want >= %d", st.Hits, 3*256)
	}
}

func newHier(t testing.TB) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(config.Default().Caches)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyMissThenHit(t *testing.T) {
	h := newHier(t)
	a := addr.Addr(0x12340)
	r := h.Access(a, false)
	if r.HitLevel != -1 {
		t.Fatalf("cold access hit level %d", r.HitLevel)
	}
	r = h.Access(a, false)
	if r.HitLevel != 0 {
		t.Errorf("second access hit level %d, want 0 (L1)", r.HitLevel)
	}
	if r.HitLatency != 4 {
		t.Errorf("L1 hit latency %d, want 4", r.HitLatency)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := newHier(t)
	base := addr.Addr(0)
	// Fill L1 (64KB, 1024 lines) far beyond capacity with a 128KB sweep;
	// early lines fall out of L1 but stay in L2 (256KB).
	for i := 0; i < 2048; i++ {
		h.Access(base+addr.Addr(i*64), false)
	}
	r := h.Access(base, false)
	if r.HitLevel != 1 && r.HitLevel != 2 {
		t.Errorf("swept-out line hit level %d, want L2 or L3", r.HitLevel)
	}
}

func TestHierarchyWritebackEscapes(t *testing.T) {
	h := newHier(t)
	// Dirty a large region far beyond LLC capacity (8MB): 16MB of lines.
	lines := uint64(16*addr.MiB) / 64
	wbs := 0
	for i := uint64(0); i < lines; i++ {
		r := h.Access(addr.Addr(i*64), true)
		wbs += len(r.Writebacks)
	}
	if wbs == 0 {
		t.Error("no writebacks escaped the LLC after dirtying 2x LLC capacity")
	}
}

func TestHierarchyMissLatencyBase(t *testing.T) {
	h := newHier(t)
	if got, want := h.MissLatencyBase(), uint64(4+12+38); got != want {
		t.Errorf("MissLatencyBase = %d, want %d", got, want)
	}
}

func TestHierarchyLLCFilter(t *testing.T) {
	// A tiny working set must produce no LLC misses after warmup.
	h := newHier(t)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 64; i++ {
			h.Access(addr.Addr(i*64), false)
		}
	}
	miss0 := h.LLC().Stats().Misses
	for i := 0; i < 64; i++ {
		h.Access(addr.Addr(i*64), false)
	}
	if got := h.LLC().Stats().Misses; got != miss0 {
		t.Errorf("LLC misses grew from %d to %d on resident set", miss0, got)
	}
}

// TestCacheMatchesReference drives the packed cache and the per-way
// reference model (reference_test.go) with the same seeded streams and
// requires the same outcome for every access: hit flag, evicted line and
// its dirty bit, and the final counters. The grid covers every policy at
// every supported power-of-two associativity, one set (a lone SRRIP
// leader) to 64 sets (two leaders of each kind plus followers),
// read-only to write-only mixes, and footprints of a quarter and twice
// the cache's capacity.
func TestCacheMatchesReference(t *testing.T) {
	accesses := 20000
	if testing.Short() {
		accesses = 4000
	}
	var followedSRRIP, followedBRRIP bool // DRRIP follower sets' choices seen
	for _, policy := range []string{"LRU", "SRRIP", "DRRIP"} {
		for _, ways := range []int{2, 4, 8, 16, 32} {
			for _, sets := range []int{1, 4, 64} {
				for _, span := range []int{2, 16} { // footprint in eighths of capacity
					for _, writePct := range []int{0, 30, 100} {
						cfg := config.CacheLevel{Name: "diff", SizeBytes: uint64(sets * ways * 64),
							Ways: ways, LineBytes: 64, Policy: policy}
						c, err := NewCache(cfg)
						if err != nil {
							t.Fatal(err)
						}
						ref := newRefCache(cfg)
						lines := max(sets*ways*span/8, 1)
						rng := rand.New(rand.NewSource(int64(ways*1000003 + sets*1009 + span*101 + writePct)))
						for i := 0; i < accesses; i++ {
							line := rng.Intn(lines)
							if rng.Intn(2) == 0 { // a hot quarter of the footprint
								line = rng.Intn(max(lines/4, 1))
							}
							a := addr.Addr(line*64 + rng.Intn(64))
							write := rng.Intn(100) < writePct
							hit, ev, evicted := c.Access(a, write)
							rhit, rev, revicted := ref.Access(a, write)
							if hit != rhit || evicted != revicted || ev != rev {
								t.Fatalf("%s ways=%d sets=%d span=%d/8 writes=%d%% access %d (%#x, write=%v): "+
									"got hit=%v ev=%+v evicted=%v, reference hit=%v ev=%+v evicted=%v",
									policy, ways, sets, span, writePct, i, uint64(a), write,
									hit, ev, evicted, rhit, rev, revicted)
							}
							if policy == "DRRIP" && sets > 32 {
								followedSRRIP = followedSRRIP || c.psel <= 0
								followedBRRIP = followedBRRIP || c.psel > 0
							}
						}
						if c.Stats() != ref.stats {
							t.Fatalf("%s ways=%d sets=%d span=%d/8 writes=%d%%: stats %+v, reference %+v",
								policy, ways, sets, span, writePct, c.Stats(), ref.stats)
						}
					}
				}
			}
		}
	}
	if !followedSRRIP || !followedBRRIP {
		t.Errorf("DRRIP follower sets never used both components (SRRIP %v, BRRIP %v)",
			followedSRRIP, followedBRRIP)
	}
}

// hierarchyStream is a fixed seeded access stream over a bench-scale
// (Scale 256) mcf footprint, the same generator the simulator feeds the
// hierarchy.
func hierarchyStream(tb testing.TB, n int) []trace.Access {
	tb.Helper()
	b, err := trace.ByName("mcf")
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := trace.NewSynthetic(b.Scale(256).Profile)
	if err != nil {
		tb.Fatal(err)
	}
	acc := make([]trace.Access, n)
	for i := 0; i < n; {
		i += gen.NextBatch(acc[i:])
	}
	return acc
}

// BenchmarkHierarchyAccess times one access through the Table I L1/L2/L3
// hierarchy (LRU, SRRIP, DRRIP) over a recorded stream.
func BenchmarkHierarchyAccess(b *testing.B) {
	acc := hierarchyStream(b, 1<<16)
	h := newHier(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := acc[i&(len(acc)-1)]
		h.Access(a.Addr, a.Write)
	}
}

func TestHierarchyAccessAllocs(t *testing.T) {
	acc := hierarchyStream(t, 1<<12)
	h := newHier(t)
	i := 0
	allocs := testing.AllocsPerRun(len(acc), func() {
		a := acc[i%len(acc)]
		h.Access(a.Addr, a.Write)
		i++
	})
	if allocs != 0 {
		t.Errorf("Hierarchy.Access allocates %.2f times per access, want 0", allocs)
	}
}
