package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/faultinject"
	"socrel/internal/model"
	socruntime "socrel/internal/runtime"
)

func TestOnOutcomePublishesEvaluations(t *testing.T) {
	clock := socruntime.NewFakeClock(time.Unix(1000, 0))
	eval := constEval(0.125)
	var events []Outcome
	srv := New(eval, Config{
		Service:   "app",
		Clock:     clock,
		OnOutcome: func(o Outcome) { events = append(events, o) },
	})

	ans := srv.Serve(context.Background(), Request{Scope: "m1"})
	checkInvariant(t, ans)
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	o := events[0]
	if o.Service != "app" || o.Scope != "m1" || !o.Success || !o.At.Equal(clock.Now()) {
		t.Fatalf("bad outcome: %+v", o)
	}

	// Failed evaluations publish too, with Success false.
	boom := errors.New("solver exploded")
	eval.set(func(context.Context, string, ...float64) (float64, error) { return 0, boom })
	srv.Serve(context.Background(), Request{Service: "other"})
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if o := events[1]; o.Success || o.Service != "other" {
		t.Fatalf("bad failure outcome: %+v", o)
	}
}

// TestOnOutcomeSilentForRequestFaults: a request the evaluator rejects
// for its own shape (wrong arity, unknown service) is no evidence about
// the provider, so it publishes nothing; other failures still publish.
func TestOnOutcomeSilentForRequestFaults(t *testing.T) {
	eval := constEval(0.125)
	var events []Outcome
	srv := New(eval, Config{
		Service:   "app",
		Clock:     socruntime.NewFakeClock(time.Unix(1000, 0)),
		OnOutcome: func(o Outcome) { events = append(events, o) },
	})
	for _, fault := range []error{model.ErrArity, model.ErrUnknownService} {
		eval.set(func(context.Context, string, ...float64) (float64, error) {
			return 0, fmt.Errorf("core: app: %w", fault)
		})
		if ans := srv.Serve(context.Background(), Request{}); ans.Err == nil {
			t.Fatalf("%v: served %+v, want an error", fault, ans)
		}
	}
	if len(events) != 0 {
		t.Fatalf("request faults published %d outcomes: %+v", len(events), events)
	}
	eval.set(func(context.Context, string, ...float64) (float64, error) {
		return 0, fmt.Errorf("core: app: %w", core.ErrNonFinite)
	})
	srv.Serve(context.Background(), Request{})
	if len(events) != 1 || events[0].Success {
		t.Fatalf("model failure published %+v, want one failed outcome", events)
	}
}

// TestOnOutcomePublishesTransientLookupFaults: a transient lookup
// failure also carries model.ErrUnknownService, but it is the provider
// failing at that moment, not a request for a service that does not
// exist, so it publishes one failed outcome.
func TestOnOutcomePublishesTransientLookupFaults(t *testing.T) {
	asm, err := assembly.LocalAssembly(assembly.DefaultPaperParams())
	if err != nil {
		t.Fatal(err)
	}
	eval := core.New(faultinject.Wrap(asm, faultinject.Options{LookupFailureRate: 1}), core.Options{})
	var events []Outcome
	srv := New(eval, Config{
		Service:   "search",
		Clock:     socruntime.NewFakeClock(time.Unix(1000, 0)),
		OnOutcome: func(o Outcome) { events = append(events, o) },
	})
	ans := srv.Serve(context.Background(), Request{Params: []float64{1, 4096, 1}})
	checkInvariant(t, ans)
	if ans.Kind != socruntime.Unavailable || !errors.Is(ans.Err, model.ErrTransient) {
		t.Fatalf("answer = %+v, want Unavailable carrying the transient fault", ans)
	}
	if len(events) != 1 || events[0].Success || events[0].Service != "search" {
		t.Fatalf("outcomes = %+v (class %q), want one failed outcome for search", events, core.ErrorClass(ans.Err))
	}
}

func TestOnOutcomeSilentForShedRequests(t *testing.T) {
	clock := socruntime.NewFakeClock(time.Unix(1000, 0))
	var events []Outcome
	srv := New(constEval(0.1), Config{
		Service:   "app",
		Clock:     clock,
		OnOutcome: func(o Outcome) { events = append(events, o) },
	})
	if _, err := srv.Drain(context.Background(), 0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	ans := srv.Serve(context.Background(), Request{})
	if ans.Kind == socruntime.Exact {
		t.Fatal("draining server served exact")
	}
	if len(events) != 0 {
		t.Fatalf("shed request published %d outcome events", len(events))
	}
}
