package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/faultinject"
	"socrel/internal/linalg"
	"socrel/internal/markov"
	"socrel/internal/model"
)

// TestErrorClass pins the slug of every taxonomy class, and that a
// transient fault wins over the lookup or binding sentinel it carries:
// the fault injector's transient lookup failure also wraps
// model.ErrUnknownService (and, below the root, an unresolved binding),
// and its refused binding reaches the caller as an unresolved binding.
func TestErrorClass(t *testing.T) {
	asm, err := assembly.LocalAssembly(assembly.DefaultPaperParams())
	if err != nil {
		t.Fatal(err)
	}
	injected := func(opts faultinject.Options) error {
		_, err := core.New(faultinject.Wrap(asm, opts), core.Options{}).Pfail("search", 1, 4096, 1)
		if err == nil {
			t.Fatalf("faultinject %+v: evaluation succeeded", opts)
		}
		return err
	}
	rootLookup := injected(faultinject.Options{LookupFailureRate: 1})
	if !errors.Is(rootLookup, model.ErrUnknownService) {
		t.Fatalf("injected lookup failure %v does not carry ErrUnknownService", rootLookup)
	}
	lookup := injected(faultinject.Options{LookupFailureRate: 1, ExemptServices: []string{"search"}})
	bind := injected(faultinject.Options{BindFailureRate: 1, ExemptServices: []string{"search"}})

	for _, tc := range []struct {
		err  error
		want string
	}{
		{nil, ""},
		{core.ErrCanceled, "canceled"},
		{context.Canceled, "canceled"},
		{fmt.Errorf("eval: %w", context.DeadlineExceeded), "canceled"},
		{&core.PanicError{Value: "boom"}, "panic"},
		{core.ErrNonFinite, "non-finite"},
		{core.ErrNoConvergence, "no-convergence"},
		{&linalg.NoConvergenceError{Iterations: 3, Residual: 0.1}, "no-convergence"},
		{core.ErrUnresolvedBinding, "unresolved-binding"},
		{core.ErrDefectiveFlow, "defective-flow"},
		{core.ErrBadTransition, "defective-flow"},
		{markov.ErrInvalidProbability, "defective-flow"},
		{markov.ErrNotAbsorbing, "defective-flow"},
		{core.ErrNotCompilable, "not-compilable"},
		{core.ErrRecursiveAssembly, "recursive-assembly"},
		{core.ErrInvalidSharing, "invalid-sharing"},
		{model.ErrInvalidService, "invalid-service"},
		{model.ErrUnknownService, "unknown-service"},
		{model.ErrNoBinding, "no-binding"},
		{model.ErrArity, "arity"},
		{model.ErrTransient, "transient"},
		{fmt.Errorf("%w: %w", model.ErrTransient, model.ErrUnknownService), "transient"},
		{fmt.Errorf("%w: %w", core.ErrUnresolvedBinding, model.ErrTransient), "transient"},
		{fmt.Errorf("%w: %w", model.ErrTransient, model.ErrNoBinding), "transient"},
		{fmt.Errorf("%w: %w", model.ErrTransient, model.ErrArity), "transient"},
		{rootLookup, "transient"},
		{lookup, "transient"},
		{bind, "transient"},
		{errors.New("something else"), "unclassified"},
	} {
		if got := core.ErrorClass(tc.err); got != tc.want {
			t.Errorf("ErrorClass(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}
