package store

import (
	"testing"

	"socrel/internal/core"
)

// TestArtifactCacheHitAllocFree is the gate that a hit does not parse:
// Get, a key lookup and LRU bookkeeping allocate nothing, while any parse
// of the stored document allocates hundreds of objects.
func TestArtifactCacheHitAllocFree(t *testing.T) {
	both, sole := paperDocs(t)
	st := NewMem()
	if _, err := st.Publish("t", "both", both, PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish("t", "sole", sole, PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	cache := NewArtifactCache(4)
	for _, tc := range []struct {
		name     string
		ref      Ref
		assembly string
	}{
		{"named", Ref{Tenant: "t", Model: "both"}, "remote"},
		{"empty", Ref{Tenant: "t", Model: "sole"}, ""},
	} {
		if _, _, err := cache.Load(st, tc.ref, tc.assembly, core.Options{}); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := cache.Load(st, tc.ref, tc.assembly, core.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s-assembly cache hit allocates %.1f objects per load, want 0", tc.name, allocs)
		}
	}
	if s := cache.Stats(); s.Misses != 2 {
		t.Errorf("misses = %d, want 2 (one compile per model)", s.Misses)
	}
}

// TestArtifactCacheDeleteRepublish: versions restart at 1 after Delete,
// so an artifact left behind by a delete that was never followed by
// Invalidate (a miss compile in flight across the delete leaves one)
// must not serve the republished v1.
func TestArtifactCacheDeleteRepublish(t *testing.T) {
	backends(t, func(t *testing.T, st Store) {
		cache := NewArtifactCache(4)
		ref := Ref{Tenant: "t", Model: "m", Version: 1}
		if _, err := st.Publish("t", "m", testDoc(t, "1e-6"), PublishOptions{}); err != nil {
			t.Fatal(err)
		}
		old, _, err := cache.Load(st, ref, "", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Delete("t", "m"); err != nil {
			t.Fatal(err)
		}
		rec, err := st.Publish("t", "m", testDoc(t, "5e-6"), PublishOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Version != 1 {
			t.Fatalf("republish after delete = v%d, want v1", rec.Version)
		}
		for _, name := range []string{"", "main"} {
			ca, got, err := cache.Load(st, ref, name, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ca == old || got.Hash != rec.Hash {
				t.Fatalf("assembly %q: republished v1 served the deleted model's artifact", name)
			}
			fresh, _, err := Compile(st, ref, name, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			p, _ := ca.Pfail("work", 4096)
			want, _ := fresh.Pfail("work", 4096)
			stale, _ := old.Pfail("work", 4096)
			if p != want || p == stale {
				t.Errorf("assembly %q: Pfail = %g, want %g from the republished content (deleted content gives %g)", name, p, want, stale)
			}
		}
	})
}

// TestArtifactCacheUnnamedAlias: an empty assembly name shares the
// artifact compiled under the sole assembly's name in either order,
// counts as a hit once resolved, and leaves with its entry on eviction
// and Invalidate.
func TestArtifactCacheUnnamedAlias(t *testing.T) {
	st := NewMem()
	for _, model := range []string{"a", "b", "c"} {
		if _, err := st.Publish("t", model, testDoc(t, "1e-6"), PublishOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	cache := NewArtifactCache(2)
	load := func(model, assembly string) *core.CompiledAssembly {
		t.Helper()
		ca, _, err := cache.Load(st, Ref{Tenant: "t", Model: model}, assembly, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ca
	}
	// Unnamed first, then named; and named first, then unnamed.
	if load("a", "") != load("a", "main") {
		t.Error("a: named load compiled a second artifact")
	}
	if load("b", "main") != load("b", "") {
		t.Error("b: unnamed load compiled a second artifact")
	}
	load("a", "")
	load("b", "")
	if s := cache.Stats(); s.Misses != 2 || s.Hits != 4 || s.Entries != 2 {
		t.Errorf("stats = %+v, want misses=2 hits=4 entries=2", s)
	}
	if n := len(cache.entries); n != 4 {
		t.Errorf("keys = %d, want 4 (two entries, each named and unnamed)", n)
	}
	load("c", "") // evicts a under both keys
	if n := len(cache.entries); n != 4 {
		t.Errorf("keys after eviction = %d, want 4", n)
	}
	cache.Invalidate("t", "b")
	if n, s := len(cache.entries), cache.Stats(); n != 2 || s.Entries != 1 {
		t.Errorf("after invalidate: keys = %d entries = %d, want 2 and 1", n, s.Entries)
	}
}
