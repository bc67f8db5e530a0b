package ncode

import (
	"container/list"
	"sync"

	"specdis/internal/bcode"
	"specdis/internal/ir"
)

// Cache memoizes compiled closure chains by execution content
// (ir.AppendExecKey), exactly like the bytecode cache: clones of one program
// share a compiled artifact, and a tree mutated after compilation re-keys
// and recompiles. Counters are the shared bcode.Counters type so one counter
// set can report whichever tier a sweep ran (Instrs counts emitted closure
// steps here). Safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	ctrs  *bcode.Counters
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
func NewCache(ctrs *bcode.Counters) *Cache {
	return &Cache{ctrs: ctrs, ents: map[string]*list.Element{}, order: list.New()}
}

// SetLimit bounds the cache to n entries, evicting least-recently-used
// compilations over capacity (0 restores the unbounded default); see
// bcode.Cache.SetLimit. Safe to call at any time.
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
// execution content. A nil result means the tree is outside the repertoire
// and must run on the reference tree walker; that outcome is cached too.
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
	p, err := Compile(t)
	if err != nil {
		p = nil
	} else if c.ctrs != nil {
		c.ctrs.Compiled.Add(1)
		c.ctrs.Instrs.Add(int64(p.Steps))
		c.ctrs.Steps.Add(int64(p.Steps))
		c.ctrs.Fused.Add(int64(p.Fused))
	}
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

// Counters returns the cache's shared counter set (nil when none was
// attached) — the simulator's adaptive tiering reports tier-ups through it.
func (c *Cache) Counters() *bcode.Counters { return c.ctrs }
