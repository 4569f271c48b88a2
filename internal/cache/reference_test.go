package cache

import (
	"repro/internal/addr"
	"repro/internal/config"
)

// This file is the reference model the packed Cache is tested against:
// the three replacement policies written the obvious way, one object per
// policy with per-way state, and a cache built on them with explicit
// valid bits. It is slow on purpose; only its decisions matter.

// refPolicy is a per-cache replacement policy over (set, way) state.
type refPolicy interface {
	OnHit(set, way int)
	OnFill(set, way int)
	Victim(set int) int // every way of set is valid
}

func newRefPolicy(name string, sets, ways int) refPolicy {
	switch name {
	case "SRRIP":
		return newRefRRIP(sets, ways, false)
	case "DRRIP":
		return &refDRRIP{sr: newRefRRIP(sets, ways, false), br: newRefRRIP(sets, ways, true)}
	default:
		p := &refLRU{stamp: make([][]uint64, sets), clock: make([]uint64, sets)}
		for i := range p.stamp {
			p.stamp[i] = make([]uint64, ways)
		}
		return p
	}
}

// refLRU evicts the way with the smallest per-set logical-clock stamp.
type refLRU struct {
	stamp [][]uint64
	clock []uint64
}

func (p *refLRU) touch(set, way int) {
	p.clock[set]++
	p.stamp[set][way] = p.clock[set]
}

func (p *refLRU) OnHit(set, way int)  { p.touch(set, way) }
func (p *refLRU) OnFill(set, way int) { p.touch(set, way) }

func (p *refLRU) Victim(set int) int {
	ways := p.stamp[set]
	victim := 0
	for w := range ways {
		if ways[w] < ways[victim] {
			victim = w
		}
	}
	return victim
}

// refRRIP is SRRIP with one byte per way, or BRRIP when brip is set.
type refRRIP struct {
	rrpv  [][]uint8
	brip  bool
	fills uint64 // BRRIP bimodal fill counter
}

func newRefRRIP(sets, ways int, brip bool) *refRRIP {
	p := &refRRIP{rrpv: make([][]uint8, sets), brip: brip}
	for i := range p.rrpv {
		p.rrpv[i] = make([]uint8, ways)
		for w := range p.rrpv[i] {
			p.rrpv[i][w] = rrpvMax
		}
	}
	return p
}

func (p *refRRIP) OnHit(set, way int) { p.rrpv[set][way] = 0 }

func (p *refRRIP) OnFill(set, way int) {
	p.rrpv[set][way] = rrpvMax - 1
	if p.brip {
		p.fills++
		if p.fills%32 != 0 {
			p.rrpv[set][way] = rrpvMax
		}
	}
}

// Victim scans for a way at rrpvMax and ages the whole set by one until
// it finds one.
func (p *refRRIP) Victim(set int) int {
	row := p.rrpv[set]
	for {
		for w, v := range row {
			if v == rrpvMax {
				return w
			}
		}
		for w := range row {
			row[w]++
		}
	}
}

// refDRRIP duels SRRIP against BRRIP: sets with set&31 == 0 always use
// SRRIP, == 1 always BRRIP, and the rest follow the PSEL counter. Each
// component keeps its own RRPV array, copied from the one that acted.
type refDRRIP struct {
	sr, br *refRRIP
	psel   int
}

func (p *refDRRIP) useSRRIP(set int) bool {
	switch set & 31 {
	case 0:
		return true
	case 1:
		return false
	}
	return p.psel <= 0
}

func (p *refDRRIP) OnHit(set, way int) {
	p.sr.OnHit(set, way)
	p.br.OnHit(set, way)
}

func (p *refDRRIP) OnFill(set, way int) {
	switch set & 31 {
	case 0:
		p.psel = min(p.psel+1, 512)
	case 1:
		p.psel = max(p.psel-1, -512)
	}
	if p.useSRRIP(set) {
		p.sr.OnFill(set, way)
		p.br.rrpv[set][way] = p.sr.rrpv[set][way]
	} else {
		p.br.OnFill(set, way)
		p.sr.rrpv[set][way] = p.br.rrpv[set][way]
	}
}

func (p *refDRRIP) Victim(set int) int {
	if p.useSRRIP(set) {
		v := p.sr.Victim(set)
		copy(p.br.rrpv[set], p.sr.rrpv[set])
		return v
	}
	v := p.br.Victim(set)
	copy(p.sr.rrpv[set], p.br.rrpv[set])
	return v
}

// refLine is one line of the reference cache.
type refLine struct {
	valid, dirty bool
	tag          uint64
}

// refCache is a write-back, write-allocate cache over a refPolicy: it
// probes every way, checks the valid bit, and fills the first invalid
// way before asking the policy for a victim.
type refCache struct {
	sets, ways          int
	lineShift, setShift uint
	lines               [][]refLine
	pol                 refPolicy
	stats               Stats
}

func newRefCache(cfg config.CacheLevel) *refCache {
	sets := int(cfg.SizeBytes / cfg.LineBytes / uint64(cfg.Ways))
	r := &refCache{sets: sets, ways: cfg.Ways, lines: make([][]refLine, sets),
		pol: newRefPolicy(cfg.Policy, sets, cfg.Ways)}
	for s := cfg.LineBytes; s > 1; s >>= 1 {
		r.lineShift++
	}
	for s := sets; s > 1; s >>= 1 {
		r.setShift++
	}
	for i := range r.lines {
		r.lines[i] = make([]refLine, cfg.Ways)
	}
	return r
}

func (r *refCache) Access(a addr.Addr, write bool) (hit bool, ev Eviction, evicted bool) {
	lineNo := uint64(a) >> r.lineShift
	set, tag := int(lineNo)&(r.sets-1), lineNo>>r.setShift
	row := r.lines[set]
	for w := range row {
		if row[w].valid && row[w].tag == tag {
			r.stats.Hits++
			r.pol.OnHit(set, w)
			row[w].dirty = row[w].dirty || write
			return true, Eviction{}, false
		}
	}
	r.stats.Misses++
	way := -1
	for w := range row {
		if !row[w].valid {
			way = w
			break
		}
	}
	if way == -1 {
		way = r.pol.Victim(set)
		old := row[way]
		ev = Eviction{Addr: addr.Addr((old.tag<<r.setShift | uint64(set)) << r.lineShift), Dirty: old.dirty}
		evicted = true
		if old.dirty {
			r.stats.Writebacks++
		}
	}
	row[way] = refLine{valid: true, dirty: write, tag: tag}
	r.pol.OnFill(set, way)
	return false, ev, evicted
}

// Contains reports whether the line holding a is resident in the packed
// cache, without side effects.
func (c *Cache) Contains(a addr.Addr) bool {
	set, tag := c.index(a)
	base := set * c.ways
	for _, v := range c.lines[base : base+c.meta[set].n] {
		if v>>lineShiftBits == tag {
			return true
		}
	}
	return false
}
