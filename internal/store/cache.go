package store

import (
	"container/list"
	"fmt"
	"sync"

	"socrel/internal/adl"
	"socrel/internal/core"
)

// resolve parses rec's document and picks the assembly: an empty name
// selects the document's sole assembly and fails if it defines several.
func resolve(rec Record, assemblyName string) (*adl.Document, string, error) {
	doc, err := rec.Document()
	if err != nil {
		return nil, "", err
	}
	name, err := doc.AssemblyName(assemblyName)
	if err != nil {
		return nil, "", fmt.Errorf("store: %s: %w", rec.Ref, err)
	}
	return doc, name, nil
}

// ArtifactCache is an LRU of compiled assemblies keyed by concrete
// (tenant, model, version, content hash, assembly). It is the hot-reload
// path between the store and the engine: resolving a Ref loads the
// record, builds the named assembly, compiles it, and memoizes the
// immutable artifact.
//
// Hit path: a Load is Store.Get, a key lookup and LRU bookkeeping. The
// key comes from the record's metadata alone, so a hit never parses the
// stored document; only a miss parses it, once, and compiles. An empty
// assembly name is resolved to the document's sole assembly on the first
// miss, and the artifact is then also filed under the empty name, so
// later empty-name hits skip the parse too.
//
// Invalidation rules (DESIGN.md §12):
//
//   - Records are append-only and artifacts immutable, so a cached entry
//     is valid forever — eviction is purely capacity-driven (LRU).
//   - A Ref with Version 0 ("latest") is resolved to a concrete version
//     on every load, so a publish is picked up on the next latest-load
//     while pinned versions keep serving their old artifact untouched.
//   - The key carries the content hash, so a version number reused after
//     Delete (versions restart at 1) never serves the deleted model's
//     artifact. Invalidate only releases memory.
type ArtifactCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	// entries maps each key to its element; an entry whose sole
	// assembly was also requested by the empty name sits under both.
	entries map[artifactKey]*list.Element

	hits, misses, evictions uint64
}

type artifactKey struct {
	tenant, model string
	version       int
	hash          string
	assembly      string
}

type artifactEntry struct {
	key artifactKey // names the assembly
	// unnamed reports that the entry is also filed under key with an
	// empty assembly name.
	unnamed bool
	ca      *core.CompiledAssembly
}

// CacheStats is a snapshot of the cache counters.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// NewArtifactCache returns a cache holding at most capacity compiled
// artifacts (minimum 1).
func NewArtifactCache(capacity int) *ArtifactCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ArtifactCache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[artifactKey]*list.Element),
	}
}

// Load resolves ref through st and returns the compiled artifact for the
// named assembly of that version, compiling (and caching) on miss. An
// empty assemblyName selects the document's sole assembly and fails if the
// document defines several. The returned Record identifies the concrete
// version served.
func (c *ArtifactCache) Load(st Store, ref Ref, assemblyName string, opts core.Options) (*core.CompiledAssembly, Record, error) {
	rec, err := st.Get(ref)
	if err != nil {
		return nil, Record{}, err
	}
	key := artifactKey{tenant: rec.Tenant, model: rec.Model, version: rec.Version, hash: rec.Hash, assembly: assemblyName}

	c.mu.Lock()
	if ca := c.lookupLocked(key, assemblyName == ""); ca != nil {
		c.hits++
		c.mu.Unlock()
		return ca, rec, nil
	}
	c.mu.Unlock()

	doc, name, err := resolve(rec, assemblyName)
	if err != nil {
		return nil, Record{}, err
	}
	key.assembly = name

	c.mu.Lock()
	if ca := c.lookupLocked(key, assemblyName == ""); ca != nil { // resident under its name
		c.hits++
		c.mu.Unlock()
		return ca, rec, nil
	}
	c.misses++
	c.mu.Unlock()

	// Compile outside the lock: compilation is slow and artifacts are
	// immutable, so a duplicate concurrent compile is wasted work, not a
	// correctness problem.
	ca, err := core.CompileDocument(doc, name, opts)
	if err != nil {
		return nil, Record{}, fmt.Errorf("store: compile %s (%s): %w", rec.Ref, name, err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if first := c.lookupLocked(key, assemblyName == ""); first != nil { // lost the compile race; keep first
		return first, rec, nil
	}
	ent := &artifactEntry{key: key, unnamed: assemblyName == "", ca: ca}
	el := c.ll.PushFront(ent)
	c.entries[key] = el
	if ent.unnamed {
		c.entries[unnamedKey(key)] = el
	}
	for c.ll.Len() > c.capacity {
		c.removeLocked(c.ll.Back())
		c.evictions++
	}
	return ca, rec, nil
}

// lookupLocked returns the artifact filed under key and marks it most
// recently used, or returns nil. With unnamed set, a key that names the
// assembly also files the entry under the empty name.
func (c *ArtifactCache) lookupLocked(key artifactKey, unnamed bool) *core.CompiledAssembly {
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	ent := el.Value.(*artifactEntry)
	if unnamed && !ent.unnamed {
		ent.unnamed = true
		c.entries[unnamedKey(ent.key)] = el
	}
	return ent.ca
}

func unnamedKey(key artifactKey) artifactKey {
	key.assembly = ""
	return key
}

// removeLocked drops one entry under every key it is filed under.
func (c *ArtifactCache) removeLocked(el *list.Element) {
	ent := c.ll.Remove(el).(*artifactEntry)
	delete(c.entries, ent.key)
	if ent.unnamed {
		delete(c.entries, unnamedKey(ent.key))
	}
}

// Invalidate drops every cached artifact of (tenant, model). Keys carry
// the content hash, so this is a memory release, not a correctness step:
// a model deleted and republished never hits its old artifacts. It never
// drops other models' artifacts.
func (c *ArtifactCache) Invalidate(tenant, model string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if key := el.Value.(*artifactEntry).key; key.tenant == tenant && key.model == model {
			c.removeLocked(el)
		}
		el = next
	}
}

// Stats returns a snapshot of the counters.
func (c *ArtifactCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.ll.Len()}
}

// Compile is the uncached compile-from-stored-form path: it loads ref and
// compiles its sole (or named) assembly.
func Compile(st Store, ref Ref, assemblyName string, opts core.Options) (*core.CompiledAssembly, Record, error) {
	rec, err := st.Get(ref)
	if err != nil {
		return nil, Record{}, err
	}
	doc, name, err := resolve(rec, assemblyName)
	if err != nil {
		return nil, Record{}, err
	}
	ca, err := core.CompileDocument(doc, name, opts)
	if err != nil {
		return nil, Record{}, fmt.Errorf("store: compile %s (%s): %w", rec.Ref, name, err)
	}
	return ca, rec, nil
}
