// Package cache implements the on-chip SRAM cache hierarchy of Table I:
// set-associative write-back caches with LRU, SRRIP and DRRIP replacement,
// composed into an L1/L2/L3 hierarchy that turns a core's load/store stream
// into the LLC-miss stream consumed by the hybrid memory system.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/config"
)

// Stats counts the events of a single cache level.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64 // dirty evictions
}

// HitRate returns hits / (hits+misses), or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// policyKind selects the replacement policy compiled into the access
// loop: LRU, SRRIP, or DRRIP (Jaleel et al., ISCA'10, with 2-bit RRPVs
// and set dueling between SRRIP and bimodal BRRIP). The cache switches
// on the kind instead of calling through an interface, so the
// hit/victim/fill path runs without dynamic dispatch. The package tests
// keep a straightforward per-way model of the same three policies and
// check every decision of this one against it.
type policyKind uint8

const (
	policyLRU policyKind = iota
	policySRRIP
	policyDRRIP
)

const (
	lineDirty     = 1 << 0
	lineShiftBits = 1 // tag occupies bits [1,64)
)

// rrpvMax is the 2-bit re-reference prediction value ceiling.
const rrpvMax = 3

// setMeta is one set's replacement record.
type setMeta struct {
	// n counts the set's valid lines. Lines are never invalidated and a
	// fill takes the first free way, so the valid lines are always the
	// prefix row[:n] of the set's ways.
	n int
	// repl is the LRU logical clock, or for RRIP the packed RRPVs: way
	// w's 2-bit value sits at bits [2w, 2w+2).
	repl uint64
}

// Cache is one set-associative write-back, write-allocate cache level.
// Line state is struct-of-arrays: each line is a single packed word
// (tag<<1 | dirty) in one flat slice indexed by set*ways+way, so a tag
// probe scans one contiguous run of machine words with one load per way,
// and only over the set's filled prefix.
type Cache struct {
	name      string
	sets      int
	ways      int
	lineBytes uint64
	lineShift uint
	setMask   uint64 // sets-1 (sets is a power of two)
	setShift  uint   // log2(sets)

	lines []uint64  // [set*ways+way]: tag<<1 | lineDirty
	meta  []setMeta // [set]

	kind policyKind
	// LRU state: per-line stamps against the set's clock (setMeta.repl).
	stamp []uint64 // [set*ways+way]
	// RRIP state, shared by SRRIP and DRRIP. DRRIP's two component
	// policies always agree on every RRPV (the reference model in the
	// tests keeps one array per component; they never diverge), so the
	// set's one word (setMeta.repl) carries both.
	ones  uint64 // 0b01 in every way's RRPV field
	fills uint64 // BRRIP bimodal fill counter (DRRIP only)
	psel  int    // DRRIP set-dueling selector
	stats Stats
}

// drripDuelMask picks the leader sets: set&mask==0 leads SRRIP, ==1 leads
// BRRIP.
const drripDuelMask = 31

// NewCache builds a cache level from its Table I description.
func NewCache(cfg config.CacheLevel) (*Cache, error) {
	if cfg.LineBytes == 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes)
	}
	linesTotal := cfg.SizeBytes / cfg.LineBytes
	if cfg.Ways <= 0 || uint64(cfg.Ways) > linesTotal || linesTotal%uint64(cfg.Ways) != 0 {
		return nil, fmt.Errorf("cache %s: %d lines not divisible into %d ways", cfg.Name, linesTotal, cfg.Ways)
	}
	sets := int(linesTotal / uint64(cfg.Ways))
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: %d sets not a power of two", cfg.Name, sets)
	}
	c := &Cache{
		name:      cfg.Name,
		sets:      sets,
		ways:      cfg.Ways,
		lineBytes: cfg.LineBytes,
		setMask:   uint64(sets - 1),
		lines:     make([]uint64, sets*cfg.Ways),
		meta:      make([]setMeta, sets),
	}
	for s := cfg.LineBytes; s > 1; s >>= 1 {
		c.lineShift++
	}
	for s := sets; s > 1; s >>= 1 {
		c.setShift++
	}
	switch cfg.Policy {
	case "SRRIP":
		c.kind = policySRRIP
	case "DRRIP":
		c.kind = policyDRRIP
	default:
		c.kind = policyLRU
	}
	if c.kind == policyLRU {
		c.stamp = make([]uint64, sets*cfg.Ways)
	} else {
		if cfg.Ways > config.MaxRRIPWays {
			return nil, fmt.Errorf("cache %s: %s supports at most %d ways, got %d",
				cfg.Name, cfg.Policy, config.MaxRRIPWays, cfg.Ways)
		}
		for w := 0; w < cfg.Ways; w++ {
			c.ones |= 1 << (2 * w)
		}
	}
	return c, nil
}

// Name returns the level name (L1D, L2, ...).
func (c *Cache) Name() string { return c.name }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) index(a addr.Addr) (set int, tag uint64) {
	lineNo := uint64(a) >> c.lineShift
	return int(lineNo & c.setMask), lineNo >> c.setShift
}

// Eviction describes a line pushed out of a cache level.
type Eviction struct {
	Addr  addr.Addr // base address of the evicted line
	Dirty bool
}

// onHit updates replacement state for a hit on way of the set whose
// record is m and whose lines start at base.
func (c *Cache) onHit(m *setMeta, base, way int) {
	if c.kind == policyLRU {
		m.repl++
		c.stamp[base+way] = m.repl
		return
	}
	m.repl &^= rrpvMax << (2 * way)
}

// onFill updates replacement state for a fill into way of set.
func (c *Cache) onFill(m *setMeta, set, base, way int) {
	var v uint64 = rrpvMax - 1 // long re-reference interval
	switch c.kind {
	case policyLRU:
		m.repl++
		c.stamp[base+way] = m.repl
		return
	case policyDRRIP:
		// A fill means the previous access to this set missed; leaders vote.
		switch set & drripDuelMask {
		case 0:
			if c.psel < 512 {
				c.psel++ // SRRIP leader missed: penalize SRRIP
			}
		case 1:
			if c.psel > -512 {
				c.psel--
			}
		}
		if !c.useSRRIP(set) {
			// BRRIP: mostly distant (rrpvMax), occasionally long.
			c.fills++
			if c.fills%32 != 0 {
				v = rrpvMax
			}
		}
	}
	s := 2 * way
	m.repl = m.repl&^(rrpvMax<<s) | v<<s
}

func (c *Cache) useSRRIP(set int) bool {
	switch set & drripDuelMask {
	case 0:
		return true
	case 1:
		return false
	}
	return c.psel <= 0
}

// victim selects the way to evict from a full set.
func (c *Cache) victim(m *setMeta, base int) int {
	if c.kind == policyLRU {
		row := c.stamp[base : base+c.ways]
		victim, min := 0, row[0]
		for w := 1; w < len(row); w++ {
			if row[w] < min {
				victim, min = w, row[w]
			}
		}
		return victim
	}
	// RRIP aging, collapsed: repeatedly scanning for rrpvMax and aging
	// every line by one until one reaches it is the same as aging every
	// line by the distance d of the oldest and evicting the first line
	// that was oldest. With each way's RRPV split into its low and high
	// bit, the first way at 3, else 2, else 1, else 0 is the lowest set
	// field of hi&lo, hi, lo, or way 0. Aging is then one add: every
	// field is at most rrpvMax-d, so none carries into its neighbour.
	x := m.repl
	lo, hi := x&c.ones, x>>1&c.ones
	var d, cand uint64
	switch {
	case hi&lo != 0:
		cand = hi & lo
	case hi != 0:
		d, cand = 1, hi
	case lo != 0:
		d, cand = 2, lo
	default:
		d, cand = 3, 1
	}
	m.repl = x + d*c.ones
	return bits.TrailingZeros64(cand) >> 1
}

// Access looks up a in the cache. On a miss the line is allocated
// (write-allocate) and the victim, if any, is returned. write marks the
// line dirty.
func (c *Cache) Access(a addr.Addr, write bool) (hit bool, ev Eviction, evicted bool) {
	set, tag := c.index(a)
	base := set * c.ways
	m := &c.meta[set]
	row := c.lines[base : base+c.ways]
	// Folding the dirty bit makes the probe a single compare per valid
	// line.
	target := tag<<lineShiftBits | lineDirty
	for w, v := range row[:m.n] {
		if v|lineDirty == target {
			c.stats.Hits++
			c.onHit(m, base, w)
			if write {
				row[w] = v | lineDirty
			}
			return true, Eviction{}, false
		}
	}
	c.stats.Misses++
	way := m.n
	if way < c.ways {
		m.n++
	} else {
		way = c.victim(m, base)
		old := row[way]
		dirty := old&lineDirty != 0
		ev = Eviction{Addr: c.lineAddr(set, old>>lineShiftBits), Dirty: dirty}
		evicted = true
		if dirty {
			c.stats.Writebacks++
		}
	}
	v := tag << lineShiftBits
	if write {
		v |= lineDirty
	}
	row[way] = v
	c.onFill(m, set, base, way)
	return false, ev, evicted
}

func (c *Cache) lineAddr(set int, tag uint64) addr.Addr {
	return addr.Addr((tag<<c.setShift | uint64(set)) << c.lineShift)
}

// Hierarchy chains cache levels; Access walks L1 -> LLC and reports
// whether the request missed the LLC along with any dirty line evicted
// from the LLC (which must be written back to memory).
type Hierarchy struct {
	levels []*Cache
	lats   []uint64
	wbBuf  []addr.Addr
}

// NewHierarchy builds the full hierarchy from Table I cache descriptions,
// ordered innermost first.
func NewHierarchy(levels []config.CacheLevel) (*Hierarchy, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("cache: empty hierarchy")
	}
	h := &Hierarchy{}
	for _, cfg := range levels {
		c, err := NewCache(cfg)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, c)
		h.lats = append(h.lats, cfg.LatencyCyc)
	}
	return h, nil
}

// Result describes the outcome of one load/store through the hierarchy.
type Result struct {
	HitLevel   int    // 0-based level index, or -1 on LLC miss
	HitLatency uint64 // hit latency in CPU cycles when HitLevel >= 0
	// Writebacks are dirty lines evicted past the LLC that must be written
	// to memory. The slice is reused by the next Access call.
	Writebacks []addr.Addr
}

// Access sends a load/store through the hierarchy. Lower levels allocate
// on miss (non-inclusive, write-back). Dirty evictions cascade: a dirty
// line evicted from Li is written into Li+1; only LLC dirty evictions
// escape to memory and are reported in Result.Writebacks.
func (h *Hierarchy) Access(a addr.Addr, write bool) Result {
	h.wbBuf = h.wbBuf[:0]
	llc := len(h.levels) - 1
	res := Result{HitLevel: -1}
	for i, c := range h.levels {
		hit, ev, evicted := c.Access(a, write)
		// Cascade this level's dirty eviction into the next level.
		if evicted && ev.Dirty {
			if i == llc {
				h.wbBuf = append(h.wbBuf, ev.Addr)
			} else {
				h.installDirty(i+1, ev.Addr)
			}
		}
		if hit {
			res.HitLevel = i
			res.HitLatency = h.lats[i]
			break
		}
	}
	res.Writebacks = h.wbBuf
	return res
}

// installDirty writes an evicted dirty line into level i, cascading
// further dirty evictions outward; LLC dirty evictions are collected as
// memory writebacks.
func (h *Hierarchy) installDirty(i int, a addr.Addr) {
	for ; i < len(h.levels); i++ {
		_, ev, evicted := h.levels[i].Access(a, true)
		if !evicted || !ev.Dirty {
			return
		}
		a = ev.Addr
	}
	h.wbBuf = append(h.wbBuf, a)
}

// Levels returns the cache levels, innermost first.
func (h *Hierarchy) Levels() []*Cache { return h.levels }

// LLC returns the last-level cache.
func (h *Hierarchy) LLC() *Cache { return h.levels[len(h.levels)-1] }

// Latencies returns each level's hit latency in CPU cycles, innermost
// first. The slice is the hierarchy's own; callers must not modify it.
func (h *Hierarchy) Latencies() []uint64 { return h.lats }

// MissLatencyBase returns the cycles spent traversing all levels before a
// request reaches memory (sum of hit latencies — the lookup path).
func (h *Hierarchy) MissLatencyBase() uint64 {
	var total uint64
	for _, l := range h.lats {
		total += l
	}
	return total
}
