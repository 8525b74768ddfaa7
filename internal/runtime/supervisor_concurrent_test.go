package runtime_test

import (
	"context"
	"sync"
	"testing"

	"socrel/internal/core"
	rt "socrel/internal/runtime"
)

// TestSupervisorConcurrentPfailDuringRebinds hammers one supervisor from
// concurrent predictors and outcome reporters. The reporters stream
// mostly-failure outcomes and keep advancing a fake clock past the
// quarantine window, so bindings trip, rebind, come back, and trip again
// while predictions are in flight. Run under -race this is the
// concurrency contract of the supervisor: every answer is tagged,
// exact ⇔ nil-error holds for every single answer, and exact answers
// always quote a real candidate.
func TestSupervisorConcurrentPfailDuringRebinds(t *testing.T) {
	asm, cands := buildWorkerAssembly(t, 0.01, 0.03)
	clk := rt.NewFakeClock(t0)
	cfg := rt.SupervisorConfig{Clock: clk}
	sup, err := rt.NewSupervisor(context.Background(), cfg, asm, "app", "worker", cands, core.Options{}, "app")
	if err != nil {
		t.Fatal(err)
	}

	const (
		predictors = 4
		reporters  = 4
		iters      = 200
	)
	ctx := context.Background()
	providers := map[string]bool{"providerA": true, "providerB": true}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		answers []rt.Answer
	)
	for g := 0; g < predictors; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ans := sup.Pfail(ctx)
				mu.Lock()
				answers = append(answers, ans)
				mu.Unlock()
			}
		}()
	}
	for g := 0; g < reporters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Mostly failures, so SPRTs trip and rebinds fire; every
				// tenth outcome ends the running quarantine windows, so
				// candidates keep cycling in and out of quarantine.
				sup.ReportOutcome(ctx, (g+i)%5 == 0)
				if i%10 == 9 {
					clk.Advance(rt.QuarantineWindow)
				}
			}
		}(g)
	}
	wg.Wait()

	if len(answers) != predictors*iters {
		t.Fatalf("collected %d answers, want %d", len(answers), predictors*iters)
	}
	exact := 0
	for _, ans := range answers {
		if ans.Kind == rt.AnswerKind(0) {
			t.Fatalf("untagged answer: %+v", ans)
		}
		if (ans.Kind == rt.Exact) != (ans.Err == nil) {
			t.Fatalf("exact ⇔ nil-error invariant violated: %+v", ans)
		}
		if ans.Kind == rt.Exact {
			exact++
			if !providers[ans.Provider] {
				t.Fatalf("exact answer from unknown provider %q", ans.Provider)
			}
		}
	}
	if exact == 0 {
		t.Fatal("no exact answers: the supervisor never actually predicted")
	}
	if got := sup.Current().Provider; !providers[got] {
		t.Fatalf("final binding %q is not a candidate", got)
	}
	t.Logf("concurrent soak: %d answers, %d exact, %d rebinds, final binding %s",
		len(answers), exact, len(sup.Rebinds()), sup.Current().Provider)
}
