package socrel_test

import (
	"fmt"

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
