package socrel_test

// The store-and-query step of the workflow: round-trip a document
// through a store, derive a working variant with the facade's query
// names, and migrate a stored model.

import (
	"errors"
	"testing"

	"socrel"
	"socrel/internal/adl"
	"socrel/internal/core"
	"socrel/internal/query"
	"socrel/internal/store"
)

const storeFacadeDSL = `
service cpu1 cpu {
    speed 1e9
    rate 1e-10
}
service cpu2 cpu {
    speed 2e9
    rate 2e-9
}
service app composite(n) {
    attr phi 1e-7
    state work and nosharing {
        call cpu(n * log2(n)) internal 1 - (1 - phi)^n
    }
    transition Start -> work prob 1
    transition work -> End prob 1
}
assembly main {
    bind app.cpu -> cpu1
}
`

func TestFacadeModelStoreRoundTrip(t *testing.T) {
	doc, err := adl.ParseDSL(storeFacadeDSL)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir() + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	rec, err := st.Publish("acme", "app", doc, socrel.PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Ref.Version != 1 {
		t.Fatalf("first publish version = %d", rec.Ref.Version)
	}
	hash, err := adl.Hash(doc)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Hash != hash {
		t.Fatalf("stored hash %s != document hash %s", rec.Hash, hash)
	}

	// Dedup: republishing identical content returns the same version.
	again, err := st.Publish("acme", "app", doc, socrel.PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Ref.Version != 1 {
		t.Fatalf("dedup broken: republish gave version %d", again.Ref.Version)
	}

	ref, err := store.ParseRef("acme/app@1")
	if err != nil {
		t.Fatal(err)
	}
	ca, got, err := store.Compile(st, ref, "", socrel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash != hash {
		t.Fatal("CompileStored returned a different record")
	}
	if _, err := ca.Pfail("app", 4096); err != nil {
		t.Fatal(err)
	}

	if _, err := st.Get(store.Ref{Tenant: "acme", Model: "ghost"}); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("missing model error = %v", err)
	}
	if _, err := st.Publish("acme", "app", doc, socrel.PublishOptions{ExpectedLatest: 7}); !errors.Is(err, store.ErrVersionConflict) {
		t.Fatalf("stale CAS error = %v", err)
	}
	if _, err := st.Publish("no/slash", "app", doc, socrel.PublishOptions{}); !errors.Is(err, store.ErrBadName) {
		t.Fatalf("bad tenant error = %v", err)
	}
}

func TestFacadeQueryBuilderVariant(t *testing.T) {
	doc, err := adl.ParseDSL(storeFacadeDSL)
	if err != nil {
		t.Fatal(err)
	}
	q := socrel.NewQuery(doc)
	vdoc, err := q.Variant("main").Named("swapped").
		Rebind(q.Service("app").Role("cpu"), socrel.BindTo(q.Service("cpu2"))).
		BuildDocument()
	if err != nil {
		t.Fatal(err)
	}

	base, err := core.CompileDocument(doc, "main", socrel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	variant, err := core.CompileDocument(vdoc, "swapped", socrel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := base.Pfail("app", 4096)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := variant.Pfail("app", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if pb == pv {
		t.Fatal("provider swap did not change the prediction")
	}

	_, err = q.Variant("nope").Build()
	if !errors.Is(err, query.ErrUnknownAssembly) {
		t.Fatalf("unknown assembly error = %v", err)
	}
	var be *query.BuildError
	if !errors.As(err, &be) {
		t.Fatalf("build failure is not a *BuildError: %v", err)
	}
}

func TestFacadeMigration(t *testing.T) {
	doc, err := adl.ParseDSL(storeFacadeDSL)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewMem()
	defer st.Close()
	if _, err := st.Publish("acme", "app", doc, socrel.PublishOptions{}); err != nil {
		t.Fatal(err)
	}

	rename := func(d *adl.Document) (*adl.Document, error) {
		q := socrel.NewQuery(d)
		return q.Variant("main").Named("renamed").BuildDocument()
	}
	normalize := store.MigrateFunc(func(d *adl.Document) (*adl.Document, error) {
		return adl.Normalize(d)
	})
	rec, err := store.Migrate(st, "acme", "app", store.Chain(rename, normalize), "rename assembly")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Ref.Version != 2 {
		t.Fatalf("migration published version %d", rec.Ref.Version)
	}
	migrated, err := rec.Document()
	if err != nil {
		t.Fatal(err)
	}
	names := migrated.AssemblyNames()
	if len(names) != 1 || names[0] != "renamed" {
		t.Fatalf("assemblies after migration = %v", names)
	}
}
