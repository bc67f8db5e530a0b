package bcode

import (
	"container/list"
	"sync"
	"sync/atomic"

	"specdis/internal/ir"
)

// Counters accumulate compilation and cache statistics, shared across every
// cache a benchmark sweep creates (one counter set per exper.Runner). All
// fields are atomics; a Counters value must not be copied after first use.
//
// The counter set is shared with the native tier (internal/ncode), where
// Instrs counts emitted closure steps instead of instruction words.
type Counters struct {
	// Compiled counts trees lowered; Instrs their total instruction words
	// (bytecode) or closure steps (native code).
	Compiled, Instrs atomic.Int64
	// Hits counts Get calls served from the cache without compiling.
	Hits atomic.Int64
	// Steps and Fused are native-tier only: total closure steps emitted and
	// pairwise superinstructions fused.
	Steps, Fused atomic.Int64
	// TierUps counts trees the simulator's adaptive tiering promoted from
	// the bytecode engine to the native tier after crossing the hot
	// threshold (sim.Runner.TierUp).
	TierUps atomic.Int64
	// Evictions counts entries a size-bounded cache dropped on capacity
	// (Cache.SetLimit); an evicted tree recompiles on its next execution.
	Evictions atomic.Int64
}

// Cache memoizes compiled trees by execution content (ir.AppendExecKey): two
// trees that execute identically — clones of one program handed to different
// benchmark cells, or the same source re-prepared under another
// disambiguator — share one compiled program no matter their identity or
// program position. Content addressing is also what makes the cache safe
// under transformation: a tree mutated after compilation keys differently
// and recompiles, instead of stale code mis-executing (the hazard the old
// PIdx-plus-pointer scheme guarded against by never hitting across clones at
// all).
//
// A cached Prog may consequently serve trees other than Prog.Tree. That is
// sound because the executor reads nothing tree-specific beyond the
// instruction stream: memory bounds come from the Env at run time, and the
// caller resolves the taken exit's payload, pricing and profiling tables
// from its own tree. Safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	ctrs  *Counters
	ents  map[string]*list.Element // nil Prog: compile declined; tree runs on the walker
	order *list.List               // front = most recently used (holds *cacheEnt)
	limit int                      // max entries; 0 = unbounded
	key   []byte                   // scratch for ir.AppendExecKey
}

// cacheEnt is one cached compilation, threaded through the LRU order list.
type cacheEnt struct {
	key  string
	prog *Prog
}

// NewCache returns an empty cache. ctrs may be nil.
func NewCache(ctrs *Counters) *Cache {
	return &Cache{ctrs: ctrs, ents: map[string]*list.Element{}, order: list.New()}
}

// SetLimit bounds the cache to n entries, evicting least-recently-used
// compilations over capacity (0 restores the unbounded default). Long-running
// multi-tenant services set a limit so one pathological tenant cannot grow
// the shared cache without bound; an evicted tree simply recompiles on its
// next execution. Safe to call at any
// time, including while the cache is shared across goroutines.
func (c *Cache) SetLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = n
	c.evictLocked()
}

// Len returns the number of cached compilations.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ents)
}

// Get returns the tree's compiled program, compiling on first use of its
// execution content. A nil result means the tree is outside the bytecode
// repertoire and must run on the reference tree walker; that outcome is
// cached too.
func (c *Cache) Get(t *ir.Tree) *Prog {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.key = ir.AppendExecKey(c.key[:0], t)
	if el, ok := c.ents[string(c.key)]; ok {
		c.order.MoveToFront(el)
		if c.ctrs != nil {
			c.ctrs.Hits.Add(1)
		}
		return el.Value.(*cacheEnt).prog
	}
	p := c.compile(t)
	c.insertLocked(string(c.key), p)
	return p
}

// insertLocked records a compilation at the front of the LRU order, evicting
// over capacity. Caller holds the lock.
func (c *Cache) insertLocked(key string, p *Prog) {
	c.ents[key] = c.order.PushFront(&cacheEnt{key: key, prog: p})
	c.evictLocked()
}

func (c *Cache) evictLocked() {
	if c.limit <= 0 {
		return
	}
	for len(c.ents) > c.limit {
		el := c.order.Back()
		if el == nil {
			return
		}
		c.order.Remove(el)
		delete(c.ents, el.Value.(*cacheEnt).key)
		if c.ctrs != nil {
			c.ctrs.Evictions.Add(1)
		}
	}
}

func (c *Cache) compile(t *ir.Tree) *Prog {
	p, err := Compile(t)
	if err != nil {
		return nil
	}
	if c.ctrs != nil {
		c.ctrs.Compiled.Add(1)
		c.ctrs.Instrs.Add(int64(len(p.Code)))
	}
	return p
}
