package runtime_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"socrel/internal/core"
	"socrel/internal/faultinject"
	"socrel/internal/model"
	"socrel/internal/monitor"
	rt "socrel/internal/runtime"
)

// TestChaosSelfHealingEndToEnd is the acceptance scenario for the
// self-healing runtime: a supervised assembly whose resolver flakes and
// stalls under fault injection, and whose bound provider silently degrades
// below its predicted reliability. The supervisor must (a) quarantine the
// provider via the SPRT within a bounded number of samples, (b) rebind to
// the healthy candidate, (c) never serve an untagged degraded answer, and
// the whole run is deterministic on a virtual clock and seeded randomness
// (no wall-clock sleeps). Run under -race in CI.
func TestChaosSelfHealingEndToEnd(t *testing.T) {
	clk := rt.NewFakeClock(time.Unix(1_700_000_000, 0))
	clk.AutoAdvance()
	outcomes := rand.New(rand.NewSource(101)) // observed invocation outcomes

	asm, cands := buildWorkerAssembly(t, 0.01, 0.03)
	var injectors []*faultinject.Resolver
	cfg := rt.SupervisorConfig{
		Clock:   clk,
		Monitor: monitor.Config{Alpha: 1e-4, Beta: 1e-4, Window: 50},
		// The evaluator sees the assembly through chaos: a fault injector
		// that fails 10% of lookups and stalls half of them for 2ms of
		// virtual time. A failed lookup degrades that one answer; it is
		// not evidence against the provider.
		WrapResolver: func(r model.Resolver) model.Resolver {
			inj := faultinject.Wrap(r, faultinject.Options{
				Seed:              7,
				LookupFailureRate: 0.10,
				LookupDelay:       2 * time.Millisecond,
				LookupDelayRate:   0.5,
				Sleep:             func(d time.Duration) { _ = clk.Sleep(context.Background(), d) },
			})
			injectors = append(injectors, inj)
			return inj
		},
	}
	ctx := context.Background()
	sup, err := rt.NewSupervisor(ctx, cfg, asm, "app", "worker", cands, core.Options{}, "app")
	if err != nil {
		t.Fatal(err)
	}
	if got := sup.Current().Provider; got != "providerA" {
		t.Fatalf("initial binding %q, want providerA", got)
	}

	var (
		answers   []rt.Answer
		lastExact *rt.Answer
		faulted   int
	)
	// ask requires an exact answer of want, or, when an injected fault
	// hit the evaluation, a Stale answer at the last exact value that
	// wraps the transient fault.
	ask := func(phase string, want float64) {
		t.Helper()
		ans := sup.Pfail(ctx)
		answers = append(answers, ans)
		switch {
		case ans.IsExact():
			if math.Abs(ans.Pfail-want) > 1e-9 {
				t.Fatalf("%s answer = %+v, want exact %g", phase, ans, want)
			}
			lastExact = &ans
		case lastExact != nil && ans.Kind == rt.Stale && ans.Pfail == lastExact.Pfail &&
			errors.Is(ans.Err, faultinject.ErrInjected) && errors.Is(ans.Err, model.ErrTransient):
			faulted++
		default:
			t.Fatalf("%s answer = %+v, want exact %g or stale at the last exact value wrapping the injected fault", phase, ans, want)
		}
	}
	report := func(trueReliability float64) bool {
		_, rebound, err := sup.ReportOutcome(ctx, outcomes.Float64() < trueReliability)
		if err != nil {
			t.Fatal(err)
		}
		return rebound
	}

	// Phase 1 — healthy: providerA runs slightly above its predicted 0.99
	// reliability. The SPRT decides Meeting (and re-arms); no rebind, and
	// every sampled answer is exact 0.01 or, under an injected fault,
	// stale at 0.01.
	for i := 0; i < 400; i++ {
		if report(0.999) {
			t.Fatalf("spurious rebind on a healthy provider at sample %d", i)
		}
		if i%20 == 0 {
			ask("healthy-phase", 0.01)
		}
	}
	if len(sup.Rebinds()) != 0 {
		t.Fatalf("healthy phase produced rebinds: %+v", sup.Rebinds())
	}

	// Phase 2 — degradation: providerA silently drops to 0.75 true
	// reliability. The SPRT must trip and the supervisor must fail over to
	// providerB within a bounded number of samples (the expected detection
	// delay at these SPRT parameters is ~20 samples; 200 is generous).
	const sampleBound = 200
	detected := -1
	for i := 0; i < sampleBound; i++ {
		if report(0.75) {
			detected = i + 1
			break
		}
	}
	if detected < 0 {
		t.Fatalf("degradation not detected within %d samples", sampleBound)
	}
	t.Logf("SPRT detected the degradation after %d samples", detected)
	if got := sup.Current().Provider; got != "providerB" {
		t.Fatalf("bound to %q after failover, want providerB", got)
	}
	if math.Abs(sup.Predicted()-0.97) > 1e-9 {
		t.Fatalf("predicted reliability after failover = %g, want 0.97", sup.Predicted())
	}
	rebinds := sup.Rebinds()
	if len(rebinds) != 1 {
		t.Fatalf("rebinds = %d, want exactly 1", len(rebinds))
	}
	if !errors.Is(rebinds[0].Reason, rt.ErrProviderDegraded) {
		t.Fatalf("rebind reason = %v, want ErrProviderDegraded", rebinds[0].Reason)
	}
	if !sup.Tracker().Quarantined("providerA") {
		t.Fatal("providerA not quarantined after the failover")
	}

	// Phase 3 — recovered: providerB honors its prediction; service is
	// exact again and stays on providerB.
	for i := 0; i < 300; i++ {
		if report(0.99) {
			t.Fatalf("spurious rebind on healthy providerB at sample %d", i)
		}
		if i%20 == 0 {
			ask("recovered-phase", 0.03)
		}
	}
	if len(sup.Rebinds()) != 1 {
		t.Fatalf("recovery phase produced extra rebinds: %+v", sup.Rebinds())
	}

	// Invariant (c): a degraded value never masquerades as exact — every
	// exact answer has a nil error, every non-exact answer carries its
	// cause, and no answer is untagged.
	for i, ans := range answers {
		if ans.Kind == rt.AnswerKind(0) {
			t.Fatalf("answer %d is untagged: %+v", i, ans)
		}
		if (ans.Kind == rt.Exact) != (ans.Err == nil) {
			t.Fatalf("answer %d violates the exact/error invariant: %+v", i, ans)
		}
	}

	// The chaos actually happened: faults were injected, and latency was
	// injected on the virtual clock.
	var injected int
	for _, inj := range injectors {
		injected += inj.Injected()
	}
	if injected == 0 {
		t.Fatal("fault injector never fired")
	}
	if len(clk.Slept()) == 0 {
		t.Fatal("no virtual sleeps recorded: latency injection did not engage")
	}
	t.Logf("chaos: %d injected faults, %d faulted answers, %d virtual sleeps, %d answers",
		injected, faulted, len(clk.Slept()), len(answers))
}
