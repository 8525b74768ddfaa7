package runtime_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"socrel/internal/core"
	"socrel/internal/monitor"
	"socrel/internal/registry"
	rt "socrel/internal/runtime"
)

func newTestTracker(clk rt.Clock) *rt.HealthTracker {
	return rt.NewHealthTracker(monitor.Config{}, clk)
}

// quarantine streams failures into p until the tracker quarantines it.
func quarantine(t *testing.T, h *rt.HealthTracker, p string) {
	t.Helper()
	for i := 0; !h.Quarantined(p); i++ {
		if i == 50 {
			t.Fatalf("%s not quarantined after 50 failures", p)
		}
		h.Observe(p, false)
	}
}

func TestHealthSPRTTripQuarantines(t *testing.T) {
	clk := rt.NewFakeClock(t0)
	h := newTestTracker(clk)
	if err := h.Watch("p", 0.99); err != nil {
		t.Fatal(err)
	}

	samples := 0
	for !h.Quarantined("p") {
		if samples++; samples > 50 {
			t.Fatal("SPRT did not trip within 50 all-failure samples")
		}
		h.Observe("p", false)
	}
	// Predicted 0.99 vs degraded 0.891 gives ~2.39 LLR per failure against
	// a ~4.6 threshold: an all-failure stream must trip within a handful.
	if samples > 5 {
		t.Fatalf("SPRT needed %d failures to trip, want <= 5", samples)
	}
	if h.Verdict("p") != monitor.Violating {
		t.Fatalf("verdict = %v, want Violating", h.Verdict("p"))
	}

	// Further outcomes on a decided-Violating monitor must not re-trip:
	// the window still ends QuarantineWindow after the first trip.
	clk.Advance(rt.QuarantineWindow - time.Second)
	h.Observe("p", false)
	if !h.Quarantined("p") {
		t.Fatal("quarantine ended before its window")
	}
	clk.Advance(time.Second)
	total := h.Checkpoint()["p"].Total
	if h.Quarantined("p") {
		t.Fatal("a later outcome restarted the quarantine window")
	}

	// Past the window the SPRT is re-armed with its counts kept, and the
	// returning provider is judged afresh: the same evidence trips it
	// again just as fast.
	if v := h.Verdict("p"); v != monitor.Undecided {
		t.Fatalf("verdict after the window = %v, want Undecided", v)
	}
	if got := h.Checkpoint()["p"].Total; got != total {
		t.Fatalf("re-arm lost statistics: total %d -> %d", total, got)
	}
	again := 0
	for !h.Quarantined("p") {
		if again++; again > 5 {
			t.Fatal("returning provider not re-quarantined within 5 failures")
		}
		h.Observe("p", false)
	}
}

func TestHealthMeetingReArmsSPRT(t *testing.T) {
	h := newTestTracker(rt.NewFakeClock(t0))
	// H1 is 0.9*predicted, so each success moves the LLR by ln 0.9 toward
	// a ~-4.6 Meeting threshold: one Meeting decision per ~44 successes.
	if err := h.Watch("p", 0.5); err != nil {
		t.Fatal(err)
	}
	meetings := 0
	for i := 0; i < 200; i++ {
		if h.Observe("p", true) == monitor.Meeting {
			meetings++
		}
	}
	if meetings < 2 {
		t.Fatalf("got %d Meeting decisions in 200 successes, want >= 2 (re-arm broken?)", meetings)
	}
	if v := h.Verdict("p"); v != monitor.Undecided {
		t.Fatalf("verdict after re-arm = %v, want Undecided", v)
	}
	// The re-armed test still detects a later degradation.
	for i := 0; i < 100 && !h.Quarantined("p"); i++ {
		h.Observe("p", false)
	}
	if !h.Quarantined("p") {
		t.Fatal("re-armed SPRT never detected the degradation")
	}
}

func TestHealthUnwatchedProvidersAreInert(t *testing.T) {
	h := newTestTracker(rt.NewFakeClock(t0))
	if v := h.Observe("ghost", false); v != monitor.Undecided {
		t.Fatalf("Observe on unwatched = %v, want Undecided", v)
	}
	if h.Quarantined("ghost") {
		t.Fatal("unwatched provider quarantined")
	}
	if v := h.Verdict("ghost"); v != monitor.Undecided {
		t.Fatalf("unwatched verdict = %v, want Undecided", v)
	}
	if h.Recover("ghost") {
		t.Fatal("Recover on unwatched provider returned true")
	}
}

// TestHealthRecoverEndsQuarantine: Recover lifts a running quarantine
// and re-arms the SPRT at once, without waiting for the window.
func TestHealthRecoverEndsQuarantine(t *testing.T) {
	h := newTestTracker(rt.NewFakeClock(t0))
	if err := h.Watch("p", 0.95); err != nil {
		t.Fatal(err)
	}
	quarantine(t, h, "p")
	if !h.Recover("p") {
		t.Fatal("Recover failed on watched provider")
	}
	if h.Quarantined("p") {
		t.Fatal("provider still quarantined after Recover")
	}
	if v := h.Verdict("p"); v != monitor.Undecided {
		t.Fatalf("verdict after Recover: %v", v)
	}
}

func TestHealthWatchReArmOnNewPrediction(t *testing.T) {
	h := newTestTracker(rt.NewFakeClock(t0))
	if err := h.Watch("p", 0.9); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		h.Observe("p", false)
	}
	if h.Verdict("p") != monitor.Violating {
		t.Fatalf("verdict = %v, want Violating", h.Verdict("p"))
	}
	total := h.Checkpoint()["p"].Total

	// Same prediction: monitor untouched.
	if err := h.Watch("p", 0.9); err != nil {
		t.Fatal(err)
	}
	if h.Verdict("p") != monitor.Violating {
		t.Fatal("re-watch with the same prediction reset the verdict")
	}

	// New prediction: SPRT re-armed, statistics preserved.
	if err := h.Watch("p", 0.7); err != nil {
		t.Fatal(err)
	}
	if v := h.Verdict("p"); v != monitor.Undecided {
		t.Fatalf("verdict after re-watch = %v, want Undecided", v)
	}
	if got := h.Checkpoint()["p"].Total; got != total {
		t.Fatalf("re-watch lost statistics: total %d -> %d", total, got)
	}

	// Degenerate predictions are clamped into the SPRT's open interval.
	if err := h.Watch("perfect", 1); err != nil {
		t.Fatalf("Watch(1) = %v", err)
	}
	if err := h.Watch("hopeless", 0); err != nil {
		t.Fatalf("Watch(0) = %v", err)
	}
}

func TestHealthCheckpointRestore(t *testing.T) {
	clk := rt.NewFakeClock(t0)
	h := newTestTracker(clk)
	if err := h.Watch("p", 0.99); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		h.Observe("p", false)
	}
	if !h.Quarantined("p") {
		t.Fatal("setup: p not quarantined")
	}
	snap := h.Checkpoint()

	// The restored tracker keeps the SPRT evidence but no quarantine:
	// monitors carry the statistics worth persisting, quarantines protect
	// the running process.
	h2 := newTestTracker(clk)
	if err := h2.RestoreCheckpoint(snap); err != nil {
		t.Fatal(err)
	}
	if v := h2.Verdict("p"); v != monitor.Violating {
		t.Fatalf("restored verdict = %v, want Violating", v)
	}
	if h2.Checkpoint()["p"].Total != snap["p"].Total {
		t.Fatal("restore lost outcome counts")
	}
	if h2.Quarantined("p") {
		t.Fatal("restore resurrected the quarantine")
	}
	// With no quarantine running, the restored Violating SPRT is re-armed
	// so the provider's next outcomes are judged afresh.
	if v := h2.Verdict("p"); v != monitor.Undecided {
		t.Fatalf("restored verdict after consulting the provider = %v, want Undecided", v)
	}

	// Restoring a corrupt snapshot fails loudly.
	bad := snap["p"]
	bad.Successes = bad.Total + 1
	if err := h2.RestoreCheckpoint(map[string]monitor.Snapshot{"p": bad}); err == nil {
		t.Fatal("RestoreCheckpoint accepted a corrupt snapshot")
	}
}

func TestSelectHealthyBindingExcludesQuarantined(t *testing.T) {
	clk := rt.NewFakeClock(t0)
	asm, cands := buildWorkerAssembly(t, 0.01, 0.03)
	h := newTestTracker(clk)
	for _, c := range cands {
		if err := h.Watch(c.Provider, 0.95); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()

	// All healthy: the more reliable providerA wins.
	sel, err := rt.SelectHealthyBinding(ctx, h, asm, "app", "worker", cands, core.Options{}, "app")
	if err != nil {
		t.Fatal(err)
	}
	if sel.Candidate.Provider != "providerA" {
		t.Fatalf("winner = %q, want providerA", sel.Candidate.Provider)
	}

	// Quarantining the best candidate reroutes to the runner-up.
	quarantine(t, h, "providerA")
	sel, err = rt.SelectHealthyBinding(ctx, h, asm, "app", "worker", cands, core.Options{}, "app")
	if err != nil {
		t.Fatal(err)
	}
	if sel.Candidate.Provider != "providerB" {
		t.Fatalf("winner = %q, want providerB", sel.Candidate.Provider)
	}

	// All quarantined: fail fast with the typed sentinel.
	quarantine(t, h, "providerB")
	_, err = rt.SelectHealthyBinding(ctx, h, asm, "app", "worker", cands, core.Options{}, "app")
	if !errors.Is(err, rt.ErrAllQuarantined) || !errors.Is(err, rt.ErrQuarantined) {
		t.Fatalf("err = %v, want ErrAllQuarantined wrapping ErrQuarantined", err)
	}

	// No candidates at all keeps the registry's sentinel.
	if _, err := rt.SelectHealthyBinding(ctx, h, asm, "app", "worker", nil, core.Options{}, "app"); !errors.Is(err, registry.ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
}
