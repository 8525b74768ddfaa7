package store

import (
	"os"
	"testing"

	"socrel/internal/adl"
	"socrel/internal/core"
)

// paperDocs parses examples/paper.adl (the paper's two-assembly system)
// and returns it plus a copy holding only its "remote" assembly, so an
// empty assembly name resolves.
func paperDocs(tb testing.TB) (both, sole *adl.Document) {
	tb.Helper()
	src, err := os.ReadFile("../../examples/paper.adl")
	if err != nil {
		tb.Fatal(err)
	}
	both, err = adl.ParseDSL(string(src))
	if err != nil {
		tb.Fatal(err)
	}
	for _, a := range both.Assemblies {
		if a.Name == "remote" {
			return both, &adl.Document{Services: both.Services, Assemblies: []adl.AssemblyDef{a}}
		}
	}
	tb.Fatal("examples/paper.adl has no remote assembly")
	return nil, nil
}

// BenchmarkArtifactCacheHit is the steady read path: Load of a resident
// artifact by latest ref, with the assembly named and left empty.
func BenchmarkArtifactCacheHit(b *testing.B) {
	both, sole := paperDocs(b)
	for _, bc := range []struct {
		name, assembly string
		doc            *adl.Document
	}{
		{"named", "remote", both},
		{"empty", "", sole},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st := NewMem()
			if _, err := st.Publish("t", "m", bc.doc, PublishOptions{}); err != nil {
				b.Fatal(err)
			}
			cache := NewArtifactCache(4)
			ref := Ref{Tenant: "t", Model: "m"}
			if _, _, err := cache.Load(st, ref, bc.assembly, core.Options{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cache.Load(st, ref, bc.assembly, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkArtifactCacheMiss is the cold read path: a one-entry cache
// alternates between two models, so every Load parses and compiles.
func BenchmarkArtifactCacheMiss(b *testing.B) {
	both, _ := paperDocs(b)
	st := NewMem()
	refs := []Ref{{Tenant: "t", Model: "a"}, {Tenant: "t", Model: "b"}}
	for _, ref := range refs {
		if _, err := st.Publish(ref.Tenant, ref.Model, both, PublishOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	cache := NewArtifactCache(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cache.Load(st, refs[i%2], "remote", core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	if s := cache.Stats(); s.Hits != 0 {
		b.Fatalf("miss benchmark hit the cache %d times", s.Hits)
	}
}

// BenchmarkPublish appends a new version of the paper model to Mem:
// canonicalize, hash, CAS and append. The model is deleted after each
// publish so the store does not grow with b.N.
func BenchmarkPublish(b *testing.B) {
	both, _ := paperDocs(b)
	st := NewMem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Publish("t", "m", both, PublishOptions{}); err != nil {
			b.Fatal(err)
		}
		if err := st.Delete("t", "m"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiskGet reads the paper model's record back from a Disk store
// by pinned version: read the version file, decode the record and its
// document, canonicalize, and check the hash. An ArtifactCache hit on a
// disk store pays this on every Load.
func BenchmarkDiskGet(b *testing.B) {
	both, _ := paperDocs(b)
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rec, err := st.Publish("t", "m", both, PublishOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Get(rec.Ref); err != nil {
			b.Fatal(err)
		}
	}
}
