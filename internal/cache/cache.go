// Package cache provides set-associative cache arrays with per-word
// coherence state, per-word data values, and LRU replacement.
//
// The array is protocol-agnostic: a line carries a protocol-defined
// per-line state byte and a per-word state byte, plus per-word 32-bit data
// values and per-word waste-profiling instance ids (see internal/waste).
// Both MESI (line-granularity states) and DeNovo (word-granularity states)
// build on it.
package cache

import "repro/internal/recycle"

// Line is one cache line. Slices are sized to the configured words per
// line at allocation and reused across occupancies.
type Line struct {
	Tag    uint32 // line address (byte address >> lineShift)
	Valid  bool
	State  uint8    // protocol-defined per-line state
	WState []uint8  // protocol-defined per-word state
	Data   []uint32 // per-word values (functional simulation)
	Owner  []uint8  // per-word auxiliary field (e.g. DeNovo registrant id)
	Inst   []uint64 // per-word open L1/L2 waste instances (0 = none; see internal/waste)
	MInst  []uint64 // per-word memory-fetch instance ids (Figure 4.3)
	Region uint8    // region id of the request that allocated the line
	lru    uint64
	idx    int // position in Cache.lines and Cache.tags
}

// noTag marks an invalid way in the tag array. Line addresses are byte
// addresses shifted right by the line size, so no line has this tag.
const noTag = ^uint32(0)

// Cache is a set-associative array. Lines and tags are stored set-major:
// set s occupies indices [s*assoc, (s+1)*assoc). A lookup scans one set's
// tags, a few contiguous words, instead of hashing into an index.
type Cache struct {
	lines    []Line
	tags     []uint32 // tags[i] == lines[i].Tag when lines[i] is valid, noTag otherwise
	words    words
	assoc    int
	numSets  uint32
	wordsPer int
	lruClock uint64
}

// words holds the per-word arrays every line's slices are carved from.
type words struct {
	state, owner []uint8
	data         []uint32
	inst, minst  []uint64
}

// geometry keys the free lists of recycled caches: the arrays depend only
// on the line count and the words per line.
type geometry struct{ lines, wordsPer int }

var recycled recycle.Pool[geometry, Cache]

// New creates a cache of sizeBytes capacity with the given associativity
// and line size. sizeBytes/assoc/lineBytes must divide evenly and the set
// count must be a power of two. Every line's per-word slices are carved
// from one backing array per field; the arrays come from a recycled cache
// of the same line count and line size when one is free.
func New(sizeBytes, assoc, lineBytes int) *Cache {
	lines := sizeBytes / lineBytes
	numSets := lines / assoc
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	wp := lineBytes / 4
	c := recycled.Get(geometry{lines, wp})
	if c == nil {
		n := lines * wp
		c = &Cache{
			lines: make([]Line, lines),
			tags:  make([]uint32, lines),
			words: words{
				state: make([]uint8, n),
				owner: make([]uint8, n),
				data:  make([]uint32, n),
				inst:  make([]uint64, n),
				minst: make([]uint64, n),
			},
		}
	}
	c.reset(assoc, numSets, wp)
	return c
}

// reset empties the cache, whatever a recycled user left in it: every
// line invalid with zero words, recency and state, carved afresh.
func (c *Cache) reset(assoc, numSets, wp int) {
	*c = Cache{lines: c.lines, tags: c.tags, words: c.words, assoc: assoc, numSets: uint32(numSets), wordsPer: wp}
	w := &c.words
	clear(w.state)
	clear(w.owner)
	clear(w.data)
	clear(w.inst)
	clear(w.minst)
	for i := range c.lines {
		lo, hi := i*wp, (i+1)*wp
		c.lines[i] = Line{
			WState: w.state[lo:hi:hi],
			Data:   w.data[lo:hi:hi],
			Owner:  w.owner[lo:hi:hi],
			Inst:   w.inst[lo:hi:hi],
			MInst:  w.minst[lo:hi:hi],
			idx:    i,
		}
		c.tags[i] = noTag
	}
}

// InstWords returns every line's Inst words, one array for the whole
// cache: the words the waste profiler sweeps at the end of a run.
func (c *Cache) InstWords() []uint64 { return c.words.inst }

// Recycle hands the cache's arrays to the next New of the same geometry.
// The caller must not use the cache, or any line it returned, again.
func (c *Cache) Recycle() { recycled.Put(geometry{len(c.lines), c.wordsPer}, c) }

// WordsPerLine returns words per line.
func (c *Cache) WordsPerLine() int { return c.wordsPer }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.numSets) }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// setBase returns the index of the first way of lineAddr's set.
func (c *Cache) setBase(lineAddr uint32) int { return int(lineAddr&(c.numSets-1)) * c.assoc }

// Lookup returns the resident line for lineAddr, or nil. It does not touch
// LRU state; call Touch on a hit that should refresh recency.
func (c *Cache) Lookup(lineAddr uint32) *Line {
	base := c.setBase(lineAddr)
	for i, t := range c.tags[base : base+c.assoc] {
		if t == lineAddr {
			return &c.lines[base+i]
		}
	}
	return nil
}

// Touch marks a line most recently used.
func (c *Cache) Touch(l *Line) {
	c.lruClock++
	l.lru = c.lruClock
}

// Victim returns the line that Allocate would evict for lineAddr: the
// invalid way if one exists (returned with Valid=false), else the LRU way.
// It never allocates. Callers use it to initiate writebacks before calling
// Allocate.
func (c *Cache) Victim(lineAddr uint32) *Line {
	base := c.setBase(lineAddr)
	set := c.lines[base : base+c.assoc]
	var victim *Line
	for i := range set {
		l := &set[i]
		if !l.Valid {
			return l
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

// VictimWhere is like Victim but only considers valid lines for which ok
// returns true (used to skip lines with in-flight directory transactions).
// An invalid way is always acceptable. It returns nil when every way is
// valid and rejected.
func (c *Cache) VictimWhere(lineAddr uint32, ok func(*Line) bool) *Line {
	base := c.setBase(lineAddr)
	set := c.lines[base : base+c.assoc]
	var victim *Line
	for i := range set {
		l := &set[i]
		if !l.Valid {
			return l
		}
		if !ok(l) {
			continue
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

// Allocate installs lineAddr into the set, evicting the victim if needed.
// It returns the (reset) line. The caller must have handled any writeback
// for the victim first (see Victim). Word state, data, owner and instance
// slices are zeroed; Valid is set and LRU refreshed.
func (c *Cache) Allocate(lineAddr uint32) *Line {
	if l := c.Lookup(lineAddr); l != nil {
		c.Touch(l)
		return l
	}
	l := c.Victim(lineAddr)
	l.Tag = lineAddr
	l.Valid = true
	l.State = 0
	l.Region = 0
	clear(l.WState)
	clear(l.Data)
	clear(l.Owner)
	clear(l.Inst)
	clear(l.MInst)
	c.tags[l.idx] = lineAddr
	c.Touch(l)
	return l
}

// Remove invalidates a resident line (protocol invalidation or recall).
func (c *Cache) Remove(l *Line) {
	if !l.Valid {
		return
	}
	c.tags[l.idx] = noTag
	l.Valid = false
}

// ForEach visits every valid line, set by set. The visitor must not
// allocate or remove lines; it may mutate word state (used for
// self-invalidation sweeps).
func (c *Cache) ForEach(f func(*Line)) {
	for i := range c.lines {
		if l := &c.lines[i]; l.Valid {
			f(l)
		}
	}
}
