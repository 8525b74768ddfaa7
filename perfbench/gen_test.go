package main

import (
	"bytes"
	"fmt"
	"testing"

	"socrel/internal/adl"
	"socrel/internal/core"
)

// inputBytes renders the first draws of every input stream a seed
// generates: model documents, requests, grids, corpus, churn ops and
// drift outcomes.
func inputBytes(seed int64) []byte {
	var b bytes.Buffer
	b.WriteString(paperADL(drawParams(newRand(seed, 0))))
	pg := newPointGen(seed)
	for i := 0; i < 64; i++ {
		scope, list := pg.next()
		fmt.Fprintf(&b, "%s %v\n", scope, list)
	}
	grid := [][]float64{make([]float64, 3), make([]float64, 3)}
	pg.fillGrid(grid)
	fmt.Fprintf(&b, "%v\n", grid)
	for _, p := range churnCorpus(seed) {
		b.WriteString(paperADL(p))
	}
	cg := newChurnGen(seed)
	for i := 0; i < 2*publishEvery; i++ {
		fmt.Fprintf(&b, "%+v\n", cg.next())
	}
	p, list := driftSetup(seed)
	fmt.Fprintf(&b, "%s %v\n", paperADL(p), list)
	og := newOutcomeGen(seed)
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&b, "%v", og.failed(driftLo))
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	if !bytes.Equal(inputBytes(7), inputBytes(7)) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := inputBytes(7), inputBytes(8)
	if bytes.Equal(a, b) {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}
	if paperADL(drawParams(newRand(7, 0))) == paperADL(drawParams(newRand(8, 0))) {
		t.Error("seeds 7 and 8 generated the same model")
	}
}

// TestGeneratedModelMatchesClosedForm checks the oracle itself: the
// rendered document, parsed and evaluated by the interpreted engine,
// agrees with the paper's closed form at the drawn constants.
func TestGeneratedModelMatchesClosedForm(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := drawParams(newRand(seed, 0))
		doc, err := adl.ParseDSL(paperADL(p))
		if err != nil {
			t.Fatal(err)
		}
		asm, err := doc.BuildAssembly(asmName)
		if err != nil {
			t.Fatal(err)
		}
		ev := core.New(asm, core.Options{})
		pg := newPointGen(seed)
		for i := 0; i < 20; i++ {
			_, list := pg.next()
			got, err := ev.Pfail(searchSvc, searchParams(list)...)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleSearch(p, list); !closeEnough(got, want) {
				t.Fatalf("seed %d list %g: engine %.17g, closed form %.17g", seed, list, got, want)
			}
		}
	}
}
