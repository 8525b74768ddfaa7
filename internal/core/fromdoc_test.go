package core

import (
	"errors"
	"testing"

	"socrel/internal/adl"
	"socrel/internal/assembly"
	"socrel/internal/model"
)

// TestEveryPathValidatesUncheckedServices: a parsed document's services
// are validated once, by the parser, and neither BuildAssembly nor
// CompileDocument validates them again. Every service that did not come
// from the parser is still validated before it compiles: in a hand-built
// assembly (Compile, ErrDefectiveFlow), in a hand-built document, in a
// parsed document whose service was swapped out, and in a document lifted
// from an assembly (BuildAssembly, ErrInvalidService).
func TestEveryPathValidatesUncheckedServices(t *testing.T) {
	leaf := model.NewConstant("leaf", 0.1)
	bad := model.NewComposite("app", nil, nil)
	st, err := bad.Flow().AddState("work", model.AND, model.NoSharing)
	if err != nil {
		t.Fatal(err)
	}
	st.AddRequest(model.Request{Role: "leaf"})
	if err := bad.Flow().AddTransitionP(model.StartState, "work", 0.7); err != nil {
		t.Fatal(err)
	}
	if err := bad.Flow().AddTransitionP(model.StartState, model.EndState, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := bad.Flow().AddTransitionP("work", model.EndState, 1); err != nil {
		t.Fatal(err)
	}

	asm := assembly.New("a")
	asm.MustAddService(leaf)
	asm.MustAddService(bad)
	asm.AddBinding("app", "leaf", "leaf", "")
	if _, err := Compile(asm, Options{}, "app"); !errors.Is(err, ErrDefectiveFlow) || !errors.Is(err, model.ErrInvalidService) {
		t.Errorf("Compile of a hand-built assembly: error = %v, want ErrDefectiveFlow", err)
	}

	parsed, err := adl.ParseDSL(`
service leaf constant(0.1)
service app composite() {
    state work and nosharing {
        call leaf
    }
    transition Start -> work prob 1
    transition work -> End prob 1
}
assembly a {
    bind app.leaf -> leaf
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileDocument(parsed, "a", Options{}); err != nil {
		t.Fatalf("CompileDocument of the valid parsed document: %v", err)
	}
	swapped := *parsed
	swapped.Services = append([]model.Service(nil), parsed.Services...)
	for i, svc := range swapped.Services {
		if svc.Name() == "app" {
			swapped.Services[i] = bad
		}
	}
	lifted, err := adl.FromAssembly(asm)
	if err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string]*adl.Document{
		"hand-built document": {
			Services:   []model.Service{leaf, bad},
			Assemblies: []adl.AssemblyDef{{Name: "a", Bindings: asm.Bindings()}},
		},
		"swapped service": &swapped,
		"FromAssembly":    lifted,
	} {
		if _, err := CompileDocument(doc, "a", Options{}); !errors.Is(err, model.ErrInvalidService) {
			t.Errorf("%s: CompileDocument error = %v, want ErrInvalidService", name, err)
		}
	}
}
