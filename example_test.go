package socrel_test

import (
	"context"
	"fmt"
	"math/rand"

	"socrel"
)

// Example predicts the paper's search-service reliability in both
// candidate architectures and picks the better one — the selection loop
// the paper's introduction motivates.
func Example() {
	p := socrel.DefaultPaperParams()
	local, err := socrel.LocalAssembly(p)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	remote, err := socrel.RemoteAssembly(p)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	list := 256.0
	rl, err := socrel.NewEvaluator(local, socrel.Options{}).Reliability("search", 1, list, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rr, err := socrel.NewEvaluator(remote, socrel.Options{}).Reliability("search", 1, list, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	winner := "local"
	if rr > rl {
		winner = "remote"
	}
	fmt.Printf("local %.6f vs remote %.6f -> deploy %s\n", rl, rr, winner)
	// Output:
	// local 0.998158 vs remote 0.996686 -> deploy local
}

// ExampleNewSupervisor supervises an open "worker" role with two
// candidate providers. The bound primary silently degrades: a seeded
// stream in which 40% of its invocations fail. Its SPRT decides it runs
// below its predicted reliability, the supervisor quarantines it and
// fails over to the backup, and the next answer is tagged.
func ExampleNewSupervisor() {
	app := socrel.NewComposite("app", nil, nil)
	work, _ := app.Flow().AddState("work", socrel.AND, socrel.NoSharing)
	work.AddRequest(socrel.Request{Role: "worker"})
	app.Flow().AddTransitionP(socrel.StartState, "work", 1)
	app.Flow().AddTransitionP("work", socrel.EndState, 1)
	asm := socrel.NewAssembly("selfheal")
	asm.MustAddService(socrel.NewConstant("primary", 0.01))
	asm.MustAddService(socrel.NewConstant("backup", 0.03))
	asm.MustAddService(app)
	candidates := []socrel.Candidate{{Provider: "primary"}, {Provider: "backup"}}

	ctx := context.Background()
	sup, err := socrel.NewSupervisor(ctx, socrel.SupervisorConfig{
		OnRebind: func(ev socrel.RebindEvent) {
			fmt.Printf("failover %s -> %s: %v\n", ev.From.Provider, ev.To.Provider, ev.Reason)
		},
	}, asm, "app", "worker", candidates, socrel.Options{}, "app")
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	observed := rand.New(rand.NewSource(1))
	for i := 0; i < 100 && sup.Current().Provider == "primary"; i++ {
		sup.ReportOutcome(ctx, observed.Float64() >= 0.4) // SPRT, quarantine and rebind happen in here
	}
	ans := sup.Pfail(ctx)
	fmt.Printf("%s answer from %s: Pfail %.2f\n", ans.Kind, ans.Provider, ans.Pfail)
	// Output:
	// failover primary -> backup: runtime: provider violating predicted reliability: SPRT violating after 9 outcomes (windowed reliability 0.6667)
	// exact answer from backup: Pfail 0.03
}
