package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"socrel/internal/adl"
	"socrel/internal/core"
)

// testDSL is a small self-contained model (one composite over one cpu).
const testDSL = `
service cpu1 cpu {
    speed 1e9
    rate 1e-10
}
service work composite(n) {
    attr phi 1e-6
    state run and nosharing {
        call cpu(n * log2(n)) internal 1 - (1 - phi)^(n * log2(n))
    }
    transition Start -> run prob 1
    transition run -> End prob 1
}
assembly main {
    bind work.cpu -> cpu1
}
`

func testDoc(t *testing.T, phi string) *adl.Document {
	t.Helper()
	src := strings.Replace(testDSL, "attr phi 1e-6", "attr phi "+phi, 1)
	doc, err := adl.ParseDSL(src)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// backends runs a subtest against both Store implementations.
func backends(t *testing.T, fn func(t *testing.T, st Store)) {
	t.Run("mem", func(t *testing.T) { fn(t, NewMem()) })
	t.Run("disk", func(t *testing.T) {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		fn(t, st)
	})
}

func TestPublishVersioningAndDedup(t *testing.T) {
	backends(t, func(t *testing.T, st Store) {
		v1, err := st.Publish("acme", "search", testDoc(t, "1e-6"), PublishOptions{Comment: "initial"})
		if err != nil {
			t.Fatal(err)
		}
		if v1.Version != 1 || v1.Hash == "" {
			t.Fatalf("v1 = %+v", v1.Ref)
		}
		// Same content republished → dedup to v1.
		again, err := st.Publish("acme", "search", testDoc(t, "1e-6"), PublishOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if again.Version != 1 || again.Hash != v1.Hash {
			t.Errorf("dedup returned version %d hash %s, want v1 %s", again.Version, again.Hash, v1.Hash)
		}
		// Changed content → v2.
		v2, err := st.Publish("acme", "search", testDoc(t, "5e-6"), PublishOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if v2.Version != 2 || v2.Hash == v1.Hash {
			t.Errorf("v2 = %d hash equal=%v", v2.Version, v2.Hash == v1.Hash)
		}
		// Latest resolves v2; pinned get resolves v1.
		latest, err := st.Get(Ref{Tenant: "acme", Model: "search"})
		if err != nil || latest.Version != 2 {
			t.Errorf("latest = %d (%v), want 2", latest.Version, err)
		}
		pinned, err := st.Get(Ref{Tenant: "acme", Model: "search", Version: 1})
		if err != nil || pinned.Hash != v1.Hash {
			t.Errorf("pinned v1 hash mismatch (%v)", err)
		}
		versions, err := st.Versions("acme", "search")
		if err != nil || len(versions) != 2 {
			t.Errorf("versions = %d (%v), want 2", len(versions), err)
		}
	})
}

func TestCompareAndSwap(t *testing.T) {
	backends(t, func(t *testing.T, st Store) {
		// Must-create on an absent model succeeds, then conflicts.
		if _, err := st.Publish("t", "m", testDoc(t, "1e-6"), PublishOptions{ExpectedLatest: -1}); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Publish("t", "m", testDoc(t, "2e-6"), PublishOptions{ExpectedLatest: -1}); !errors.Is(err, ErrVersionConflict) {
			t.Errorf("must-create on existing model: err = %v, want ErrVersionConflict", err)
		}
		// CAS against the right version succeeds; stale CAS conflicts.
		if _, err := st.Publish("t", "m", testDoc(t, "2e-6"), PublishOptions{ExpectedLatest: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Publish("t", "m", testDoc(t, "3e-6"), PublishOptions{ExpectedLatest: 1}); !errors.Is(err, ErrVersionConflict) {
			t.Errorf("stale CAS: err = %v, want ErrVersionConflict", err)
		}
	})
}

func TestNotFoundAndBadNames(t *testing.T) {
	backends(t, func(t *testing.T, st Store) {
		if _, err := st.Get(Ref{Tenant: "ghost", Model: "none"}); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get absent: %v, want ErrNotFound", err)
		}
		if _, err := st.Versions("ghost", "none"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Versions absent: %v, want ErrNotFound", err)
		}
		if err := st.Delete("ghost", "none"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Delete absent: %v, want ErrNotFound", err)
		}
		for _, bad := range []string{"", "a/b", "..", "a b", "x@1"} {
			if _, err := st.Publish(bad, "m", testDoc(t, "1e-6"), PublishOptions{}); !errors.Is(err, ErrBadName) {
				t.Errorf("Publish tenant %q: %v, want ErrBadName", bad, err)
			}
		}
	})
}

func TestDeleteAndListing(t *testing.T) {
	backends(t, func(t *testing.T, st Store) {
		for _, m := range []string{"alpha", "beta"} {
			if _, err := st.Publish("t1", m, testDoc(t, "1e-6"), PublishOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Publish("t2", "gamma", testDoc(t, "1e-6"), PublishOptions{}); err != nil {
			t.Fatal(err)
		}
		tenants, err := st.Tenants()
		if err != nil || len(tenants) != 2 || tenants[0] != "t1" || tenants[1] != "t2" {
			t.Errorf("tenants = %v (%v)", tenants, err)
		}
		models, err := st.Models("t1")
		if err != nil || len(models) != 2 || models[0] != "alpha" {
			t.Errorf("models = %v (%v)", models, err)
		}
		if err := st.Delete("t1", "alpha"); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Get(Ref{Tenant: "t1", Model: "alpha"}); !errors.Is(err, ErrNotFound) {
			t.Errorf("deleted model still resolves: %v", err)
		}
	})
}

// TestDiskSurvivesReopen is the durability acceptance check: a stored
// model survives process restart (a fresh Open) and reloads byte-identical
// — same content hash, same canonical source.
func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.Publish("acme", "search", testDoc(t, "1e-6"), PublishOptions{Comment: "persist me"})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.Get(Ref{Tenant: "acme", Model: "search", Version: rec.Version})
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash != rec.Hash {
		t.Errorf("hash after reopen = %s, want %s", got.Hash, rec.Hash)
	}
	if string(got.Source) != string(rec.Source) {
		t.Error("canonical source not byte-identical after reopen")
	}
	if got.Comment != "persist me" {
		t.Errorf("comment = %q", got.Comment)
	}
	// And it still compiles and predicts.
	ca, _, err := Compile(st2, Ref{Tenant: "acme", Model: "search"}, "", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p, err := ca.Pfail("work", 4096); err != nil || p <= 0 || p >= 1 {
		t.Errorf("Pfail = %g (%v)", p, err)
	}
}

// TestDiskQuarantinesTornVersion simulates a torn write (partial JSON) and
// a hash-tampered record: Open must quarantine both and keep serving the
// intact versions.
func TestDiskQuarantinesTornVersion(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish("t", "m", testDoc(t, "1e-6"), PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	v2, err := st.Publish("t", "m", testDoc(t, "2e-6"), PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Tear v2 (truncate mid-file) and drop a stray temp file.
	mdir := filepath.Join(dir, "t", "m")
	v2path := filepath.Join(mdir, versionFile(v2.Version))
	data, err := os.ReadFile(v2path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v2path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mdir, ".tmp-v123"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	latest, err := st2.Get(Ref{Tenant: "t", Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if latest.Version != 1 {
		t.Errorf("latest after tear = v%d, want v1 (torn v2 quarantined)", latest.Version)
	}
	if _, err := os.Stat(v2path + ".corrupt"); err != nil {
		t.Errorf("torn version not quarantined: %v", err)
	}
	entries, _ := os.ReadDir(mdir)
	for _, de := range entries {
		if strings.HasPrefix(de.Name(), ".tmp-") {
			t.Errorf("stray temp file survived open: %s", de.Name())
		}
	}
	// The store heals by appending: the next publish becomes v2 again.
	v2b, err := st2.Publish("t", "m", testDoc(t, "3e-6"), PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v2b.Version != 2 {
		t.Errorf("publish after quarantine = v%d, want 2", v2b.Version)
	}
}

func TestArtifactCacheCountersAndEviction(t *testing.T) {
	st := NewMem()
	cache := NewArtifactCache(2)
	refs := make([]Ref, 3)
	for i := range refs {
		model := fmt.Sprintf("m%d", i)
		if _, err := st.Publish("t", model, testDoc(t, "1e-6"), PublishOptions{}); err != nil {
			t.Fatal(err)
		}
		refs[i] = Ref{Tenant: "t", Model: model, Version: 1}
	}
	// Miss, miss, hit, then evict the LRU (m0) with m2.
	if _, _, err := cache.Load(st, refs[0], "", core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Load(st, refs[1], "", core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Load(st, refs[1], "", core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Load(st, refs[2], "", core.Options{}); err != nil {
		t.Fatal(err)
	}
	stats := cache.Stats()
	if stats.Hits != 1 || stats.Misses != 3 || stats.Evictions != 1 || stats.Entries != 2 {
		t.Errorf("stats = %+v, want hits=1 misses=3 evictions=1 entries=2", stats)
	}
	// m0 was evicted: loading it again is a miss (recompile), m1 stays hot.
	if _, _, err := cache.Load(st, refs[0], "", core.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Misses; got != 4 {
		t.Errorf("misses after reload = %d, want 4", got)
	}

	// Invalidate drops only the named model (m0 and m2 are resident now).
	cache.Invalidate("t", "m2")
	if got := cache.Stats().Entries; got != 1 {
		t.Errorf("entries after invalidate = %d, want 1", got)
	}
}

// TestLatestVersionResolution: a cache Load of "latest" picks up a new
// publish while a pinned ref keeps serving the old artifact.
func TestLatestVersionResolution(t *testing.T) {
	st := NewMem()
	cache := NewArtifactCache(8)
	if _, err := st.Publish("t", "m", testDoc(t, "1e-6"), PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	ca1, rec1, err := cache.Load(st, Ref{Tenant: "t", Model: "m"}, "", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec1.Version != 1 {
		t.Fatalf("latest = v%d, want 1", rec1.Version)
	}
	if _, err := st.Publish("t", "m", testDoc(t, "5e-6"), PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	// Pinned v1 still serves the original artifact (pointer-identical).
	caPinned, _, err := cache.Load(st, Ref{Tenant: "t", Model: "m", Version: 1}, "", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if caPinned != ca1 {
		t.Error("pinned v1 was invalidated by the publish")
	}
	// Latest now resolves v2 with a different prediction.
	ca2, rec2, err := cache.Load(st, Ref{Tenant: "t", Model: "m"}, "", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Version != 2 || ca2 == ca1 {
		t.Errorf("latest after publish = v%d (same artifact: %v)", rec2.Version, ca2 == ca1)
	}
	p1, _ := ca1.Pfail("work", 4096)
	p2, _ := ca2.Pfail("work", 4096)
	if p1 == p2 {
		t.Error("v1 and v2 predict identically despite different phi")
	}
}

// TestConcurrentPublishWhilePredicting is the -race acceptance check:
// readers stream predictions against the pinned v1 artifact while a writer
// publishes new versions; the old artifact keeps serving, and latest-loads
// converge on the new versions.
func TestConcurrentPublishWhilePredicting(t *testing.T) {
	backends(t, func(t *testing.T, st Store) {
		cache := NewArtifactCache(16)
		if _, err := st.Publish("t", "m", testDoc(t, "1e-6"), PublishOptions{}); err != nil {
			t.Fatal(err)
		}
		ca1, _, err := cache.Load(st, Ref{Tenant: "t", Model: "m", Version: 1}, "", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ca1.Pfail("work", 4096)
		if err != nil {
			t.Fatal(err)
		}

		const readers = 4
		const iters = 50
		var wg sync.WaitGroup
		errCh := make(chan error, readers+1)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					ca, rec, err := cache.Load(st, Ref{Tenant: "t", Model: "m", Version: 1}, "", core.Options{})
					if err != nil {
						errCh <- err
						return
					}
					if rec.Version != 1 || ca != ca1 {
						errCh <- fmt.Errorf("pinned v1 drifted to v%d", rec.Version)
						return
					}
					p, err := ca.Pfail("work", 4096)
					if err != nil || p != want {
						errCh <- fmt.Errorf("pinned prediction drifted: %g vs %g (%v)", p, want, err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 2; i <= 6; i++ {
				phi := fmt.Sprintf("%de-6", i)
				if _, err := st.Publish("t", "m", testDoc(t, phi), PublishOptions{}); err != nil {
					errCh <- err
					return
				}
				if _, _, err := cache.Load(st, Ref{Tenant: "t", Model: "m"}, "", core.Options{}); err != nil {
					errCh <- err
					return
				}
			}
		}()
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Error(err)
		}
		latest, err := st.Get(Ref{Tenant: "t", Model: "m"})
		if err != nil || latest.Version != 6 {
			t.Errorf("latest = v%d (%v), want 6", latest.Version, err)
		}
	})
}

func TestMigrate(t *testing.T) {
	backends(t, func(t *testing.T, st Store) {
		if _, err := st.Publish("t", "m", testDoc(t, "1e-6"), PublishOptions{}); err != nil {
			t.Fatal(err)
		}
		// set returns a hook that rewrites the model to the given phi —
		// a stand-in for a real retuning migration.
		set := func(phi string) MigrateFunc {
			return func(*adl.Document) (*adl.Document, error) {
				return adl.ParseDSL(strings.Replace(testDSL, "attr phi 1e-6", "attr phi "+phi, 1))
			}
		}
		rec, err := Migrate(st, "t", "m", set("2e-6"), "retune phi")
		if err != nil {
			t.Fatal(err)
		}
		if rec.Version != 2 || rec.Comment != "retune phi" {
			t.Errorf("migrated = v%d %q", rec.Version, rec.Comment)
		}
		// Identity migration dedups: no new version.
		same, err := Migrate(st, "t", "m", func(d *adl.Document) (*adl.Document, error) { return d, nil }, "noop")
		if err != nil {
			t.Fatal(err)
		}
		if same.Version != 2 {
			t.Errorf("identity migration appended v%d", same.Version)
		}
		// A failing hook propagates its error.
		boom := errors.New("boom")
		if _, err := Migrate(st, "t", "m", func(d *adl.Document) (*adl.Document, error) { return nil, boom }, ""); !errors.Is(err, boom) {
			t.Errorf("failing hook: %v", err)
		}
		// Chain composes left to right: the last hook's phi wins.
		chained, err := Migrate(st, "t", "m", Chain(set("3e-6"), set("4e-6")), "double bump")
		if err != nil {
			t.Fatal(err)
		}
		if chained.Version != 3 {
			t.Errorf("chained = v%d, want 3", chained.Version)
		}
	})
}

func TestParseRef(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Ref
		ok   bool
	}{
		{"acme/search", Ref{Tenant: "acme", Model: "search"}, true},
		{"acme/search@3", Ref{Tenant: "acme", Model: "search", Version: 3}, true},
		{"acme", Ref{}, false},
		{"acme/search@0", Ref{}, false},
		{"acme/search@x", Ref{}, false},
		{"a b/c", Ref{}, false},
		{"", Ref{}, false},
	} {
		got, err := ParseRef(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseRef(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseRef(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		if !tc.ok && err != nil && !errors.Is(err, ErrBadName) {
			t.Errorf("ParseRef(%q) err = %v, want ErrBadName", tc.in, err)
		}
	}
}

// TestDiskLatestSkipsDamagedNewest: a newest version file damaged after
// Open is skipped by latest resolution, so Get falls back to the previous
// version and Publish takes that version as its CAS base and dedup target.
func TestDiskLatestSkipsDamagedNewest(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	v1, err := st.Publish("t", "m", testDoc(t, "1e-6"), PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := st.Publish("t", "m", testDoc(t, "2e-6"), PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v2path := filepath.Join(dir, "t", "m", versionFile(v2.Version))
	data, err := os.ReadFile(v2path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v2path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	latest, err := st.Get(Ref{Tenant: "t", Model: "m"})
	if err != nil || latest.Version != 1 || latest.Hash != v1.Hash {
		t.Fatalf("Get latest = v%d (%v), want v1", latest.Version, err)
	}
	// Dedup target is v1: republishing its content returns v1.
	same, err := st.Publish("t", "m", testDoc(t, "1e-6"), PublishOptions{ExpectedLatest: 1})
	if err != nil || same.Version != 1 {
		t.Fatalf("dedup publish = v%d (%v), want v1", same.Version, err)
	}
	// CAS base is v1: a publish expecting v2 conflicts, one expecting v1
	// writes v2 over the damaged file.
	if _, err := st.Publish("t", "m", testDoc(t, "3e-6"), PublishOptions{ExpectedLatest: 2}); !errors.Is(err, ErrVersionConflict) {
		t.Errorf("publish expecting v2: err = %v, want ErrVersionConflict", err)
	}
	next, err := st.Publish("t", "m", testDoc(t, "3e-6"), PublishOptions{ExpectedLatest: 1})
	if err != nil || next.Version != 2 {
		t.Fatalf("publish expecting v1 = v%d (%v), want v2", next.Version, err)
	}
	if got, err := st.Get(Ref{Tenant: "t", Model: "m"}); err != nil || got.Hash != next.Hash {
		t.Errorf("Get latest after republish: hash %s (%v), want %s", got.Hash, err, next.Hash)
	}
}

// TestCanonicalHashMatchesAdlHash guards the single-normalize publish:
// canonicalize hashes its canonical bytes directly, and that hash must
// equal adl.Hash, which readRecordFile verifies disk records against and
// which earlier publishes were deduplicated by.
func TestCanonicalHashMatchesAdlHash(t *testing.T) {
	paths, err := filepath.Glob("../../examples/*.adl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example models (%v)", err)
	}
	sources := map[string]string{"testDSL": testDSL}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		sources[p] = string(src)
	}
	for i, seed := range adl.DSLSeeds {
		sources[fmt.Sprintf("DSLSeeds[%d]", i)] = seed
	}
	checked := 0
	for name, src := range sources {
		doc, err := adl.ParseDSL(src)
		if err != nil {
			continue // rejected seeds are never published
		}
		_, hash, err := canonicalize(doc)
		want, werr := adl.Hash(doc)
		if (err == nil) != (werr == nil) {
			t.Errorf("%s: canonicalize err = %v, adl.Hash err = %v", name, err, werr)
			continue
		}
		if err == nil && hash != want {
			t.Errorf("%s: publish hash %s, adl.Hash %s", name, hash, want)
		}
		checked++
	}
	if checked < 3 {
		t.Errorf("only %d sources parsed; the check covers too little", checked)
	}
}
