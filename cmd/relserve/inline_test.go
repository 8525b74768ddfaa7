package main

import (
	"context"
	"net/http/httptest"
	"testing"

	"socrel/internal/adl"
	"socrel/internal/core"
	"socrel/internal/store"
)

// TestDispatchEvalForwardsInline: the per-request dispatcher answers the
// server's inline question with the answer of the evaluator the request
// selected, so a closed-form model reports Inline through it and a
// numeric one does not.
func TestDispatchEvalForwardsInline(t *testing.T) {
	doc, err := adl.ParseDSL(storeDSL)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewMem()
	rec, err := st.Publish("acme", "search", doc, store.PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	host := newModelHost(st, 4, core.Options{})
	d := &dispatchEval{}

	if d.Inline(context.Background(), "search") {
		t.Fatal("a request that selected no evaluator must not opt in")
	}

	// The stored model as relserve serves it: the artifact cache's
	// compile, resolved from ?model=.
	ctx, _, failed := modelContext(httptest.NewRecorder(), httptest.NewRequest("POST", "/predict?model=acme/search", nil), host)
	if failed {
		t.Fatal("modelContext refused a published model")
	}
	ca, ok := ctx.Value(modelCtxKey{}).(*core.CompiledAssembly)
	if !ok {
		t.Fatal("request context carries no compiled artifact")
	}
	if got, want := d.Inline(ctx, "search"), ca.Inline(ctx, "search"); got != want {
		t.Fatalf("stored artifact: dispatchEval.Inline = %v, artifact's own = %v", got, want)
	}

	// The same stored record compiled to closed forms opts in through the
	// dispatcher, on stored models and on the default model alike.
	stored, err := rec.Document()
	if err != nil {
		t.Fatal(err)
	}
	asm, err := stored.BuildAssembly("main")
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.CompileParametric(asm, core.Options{}, core.ParametricOptions{}, "search")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Inline(context.WithValue(context.Background(), modelCtxKey{}, par), "search") {
		t.Fatal("closed-form stored model: dispatchEval.Inline = false, want true")
	}
	host.def = par
	ctx, _, failed = modelContext(httptest.NewRecorder(), httptest.NewRequest("POST", "/predict", nil), host)
	if failed || !d.Inline(ctx, "search") {
		t.Fatal("closed-form default model: dispatchEval.Inline = false, want true")
	}
	if d.Inline(ctx, "cpu1") {
		t.Fatal("a non-root service must not opt in")
	}
}
