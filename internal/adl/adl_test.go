package adl

import (
	"errors"
	"math"
	"strings"
	"testing"

	"socrel/internal/model"
)

// paperDSL is the paper's section 4 example written in the ADL.
const paperDSL = `
# The search/sort example of Grassi's section 4.
service cpu1 cpu {
    speed 1e9
    rate 1e-10
}
service cpu2 cpu {
    speed 1e9
    rate 1e-10
}
service net12 network {
    bandwidth 1e5
    rate 5e-3
}
service lpc lpc {
    l 1000
}
service rpc rpc {
    c 10
    m 270
}
service sort1 composite(list) {
    attr phi 1e-6
    state work and nosharing {
        call cpu(list * log2(list)) internal 1 - (1 - phi)^(list * log2(list))
    }
    transition Start -> work prob 1
    transition work -> End prob 1
}
service sort2 composite(list) {
    attr phi 1e-7
    state work and nosharing {
        call cpu(list * log2(list)) internal 1 - (1 - phi)^(list * log2(list))
    }
    transition Start -> work prob 1
    transition work -> End prob 1
}
service search composite(elem, list, res) {
    attr phi 1e-7
    attr q 0.9
    state sort and nosharing {
        call sort(list) connector(elem + list, res)
    }
    state lookup and nosharing {
        call cpu(log2(list)) internal 1 - (1 - phi)^log2(list)
    }
    transition Start -> sort prob q
    transition Start -> lookup prob 1 - q
    transition sort -> lookup prob 1
    transition lookup -> End prob 1
}
assembly local {
    bind search.sort -> sort1 via lpc
    bind search.cpu -> cpu1
    bind sort1.cpu -> cpu1
    bind lpc.cpu -> cpu1
}
assembly remote {
    bind search.sort -> sort2 via rpc
    bind search.cpu -> cpu1
    bind sort2.cpu -> cpu2
    bind rpc.clientcpu -> cpu1
    bind rpc.servercpu -> cpu2
    bind rpc.net -> net12
}
`

func TestParsePaperDSL(t *testing.T) {
	doc, err := ParseDSL(paperDSL)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Services) != 8 {
		t.Errorf("services = %d, want 8", len(doc.Services))
	}
	if got := doc.AssemblyNames(); len(got) != 2 || got[0] != "local" || got[1] != "remote" {
		t.Errorf("assemblies = %v", got)
	}
	if _, ok := doc.Service("search"); !ok {
		t.Error("search not found")
	}
	if _, ok := doc.Service("ghost"); ok {
		t.Error("ghost found")
	}
}

// TestDSLAssemblyMatchesProgrammatic lives in engine_test.go (external
// test package): it imports internal/core, which now imports this
// package, so keeping it here would be an import cycle.

func TestBuildAssemblyUnknown(t *testing.T) {
	doc, err := ParseDSL(paperDSL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.BuildAssembly("ghost"); err == nil {
		t.Error("expected error for unknown assembly")
	}
}

// TestParseSniffsSyntaxAndSoleAssembly: Parse reads both syntaxes of one
// document, and the empty assembly name resolves only when the document
// defines exactly one assembly.
func TestParseSniffsSyntaxAndSoleAssembly(t *testing.T) {
	two, err := ParseDSL(paperDSL)
	if err != nil {
		t.Fatal(err)
	}
	js, err := MarshalJSON(two)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{paperDSL, "\n\t " + string(js)} {
		doc, err := Parse([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		if got := doc.AssemblyNames(); len(got) != 2 {
			t.Fatalf("Parse: assemblies = %v, want local and remote", got)
		}
	}

	if name, err := two.AssemblyName("remote"); err != nil || name != "remote" {
		t.Errorf(`AssemblyName("remote") = %q, %v`, name, err)
	}
	if _, err := two.AssemblyName(""); !errors.Is(err, ErrNoSoleAssembly) {
		t.Errorf("two assemblies, empty name: err = %v, want ErrNoSoleAssembly", err)
	}
	if _, err := two.BuildAssembly(""); !errors.Is(err, ErrNoSoleAssembly) {
		t.Errorf("BuildAssembly(\"\") on two assemblies: err = %v, want ErrNoSoleAssembly", err)
	}
	one := &Document{Services: two.Services, Assemblies: two.Assemblies[1:]}
	if name, err := one.AssemblyName(""); err != nil || name != "remote" {
		t.Errorf("sole assembly: AssemblyName(\"\") = %q, %v; want remote", name, err)
	}
	if asm, err := one.BuildAssembly(""); err != nil || asm.Name() != "remote" {
		t.Errorf("sole assembly: BuildAssembly(\"\") = %v, %v", asm, err)
	}
	if _, err := (&Document{}).AssemblyName(""); !errors.Is(err, ErrNoSoleAssembly) {
		t.Errorf("no assemblies: err = %v, want ErrNoSoleAssembly", err)
	}
}

func TestParseSimpleKinds(t *testing.T) {
	src := `
service loc perfect(ip, op)
service bare perfect
service flaky constant(0.25)
service leaf simple(n) {
    attr k 100
    pfail n / k
}
`
	doc, err := ParseDSL(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Services) != 4 {
		t.Fatalf("services = %d", len(doc.Services))
	}
	loc, _ := doc.Service("loc")
	if got := loc.FormalParams(); len(got) != 2 || got[0] != "ip" {
		t.Errorf("loc params = %v", got)
	}
	flaky, _ := doc.Service("flaky")
	p, err := flaky.(*model.Simple).Pfail(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.25 {
		t.Errorf("flaky Pfail = %g", p)
	}
	leaf, _ := doc.Service("leaf")
	p, err = leaf.(*model.Simple).Pfail([]float64{30})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.3) > 1e-15 {
		t.Errorf("leaf Pfail = %g", p)
	}
}

func TestParseKofNState(t *testing.T) {
	src := `
service backend constant(0.3)
service app composite {
    state s kofn 2 nosharing {
        call backend
        call backend
        call backend
    }
    transition Start -> s prob 1
    transition s -> End prob 1
}
`
	doc, err := ParseDSL(src)
	if err != nil {
		t.Fatal(err)
	}
	app, _ := doc.Service("app")
	st := app.(*model.Composite).Flow().State("s")
	if st.Completion != model.KOfN || st.K != 2 || len(st.Requests) != 3 {
		t.Errorf("state = %+v", st)
	}
	if st.Requests[0].Role != "backend" || st.Requests[0].Params != nil {
		t.Errorf("bare call request = %+v", st.Requests[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"unknown statement", "bogus foo"},
		{"unknown kind", "service x teleporter"},
		{"missing name", "service cpu"},
		{"duplicate service", "service x perfect\nservice x perfect"},
		{"cpu missing block", "service x cpu"},
		{"cpu missing attr", "service x cpu {\nspeed 1\n}"},
		{"bad attr value", "service x cpu {\nspeed fast\nrate 1\n}"},
		{"attr line shape", "service x cpu {\nspeed\nrate 1\n}"},
		{"constant no prob", "service x constant()"},
		{"constant bad prob", "service x constant(soon)"},
		{"constant with block", "service x constant(0.2) {"},
		{"perfect with block", "service x perfect {"},
		{"simple no pfail", "service x simple(n) {\nattr a 1\n}"},
		{"simple bad expr", "service x simple(n) {\npfail n +\n}"},
		{"simple bad stmt", "service x simple(n) {\nwat\n}"},
		{"unterminated block", "service x simple(n) {\npfail n"},
		{"composite bad state hdr", "service x composite {\nstate s and {\n}"},
		{"composite unknown completion", "service x composite {\nstate s xor nosharing {\n}\n}"},
		{"composite unknown dependency", "service x composite {\nstate s and maybe {\n}\n}"},
		{"kofn missing k", "service x composite {\nstate s kofn nosharing {\n}\n}"},
		{"transition no arrow", "service x composite {\ntransition a b prob 1\n}"},
		{"transition no prob", "service x composite {\ntransition a -> b\n}"},
		{"state bad call", "service x composite {\nstate s and nosharing {\nwat\n}\n}"},
		{"call bad expr", "service x composite {\nstate s and nosharing {\ncall y(1 +)\n}\n}"},
		{"call trailing junk", "service x composite {\nstate s and nosharing {\ncall y(1) zzz\n}\n}"},
		{"call unbalanced", "service x composite {\nstate s and nosharing {\ncall y(1\n}\n}"},
		{"assembly no name", "assembly {"},
		{"assembly bad bind", "assembly a {\nbind x y\n}"},
		{"bind no dot", "assembly a {\nbind xy -> z\n}"},
		{"bind bad via", "assembly a {\nbind x.y -> z through w\n}"},
		{"service header unbalanced", "service x simple(n {"},
		{"transition out of End", "service x composite {\ntransition End -> Start prob 1\n}"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseDSL(tc.src); err == nil {
				t.Errorf("ParseDSL succeeded, want error; src:\n%s", tc.src)
			}
		})
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := ParseDSL("service ok perfect\nbogus")
	if err == nil {
		t.Fatal("expected error")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T", err)
	}
	if pe.Line != 2 {
		t.Errorf("Line = %d, want 2", pe.Line)
	}
	if !errors.Is(err, ErrSyntax) {
		t.Error("ParseError does not match ErrSyntax")
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := `
# full-line comment

service x perfect   # trailing comment

`
	doc, err := ParseDSL(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Services) != 1 {
		t.Errorf("services = %d", len(doc.Services))
	}
}

// TestJSONRoundTrip (DSL -> Document -> JSON -> Document preserves the
// reliability semantics exactly) lives in engine_test.go (external test
// package) for the same import-cycle reason.

func TestJSONRoundTripKofNAndSharing(t *testing.T) {
	src := `
service backend constant(0.3)
service app composite {
    attr phi 0.01
    state s kofn 2 sharing {
        call backend internal phi
        call backend internal phi
        call backend internal phi
    }
    transition Start -> s prob 1
    transition s -> End prob 1
}
`
	doc, err := ParseDSL(src)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := UnmarshalJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	app, _ := doc2.Service("app")
	st := app.(*model.Composite).Flow().State("s")
	if st.Completion != model.KOfN || st.K != 2 || st.Dependency != model.Sharing {
		t.Errorf("state after round trip = %+v", st)
	}
	if st.Requests[0].Internal == nil {
		t.Error("internal expression lost in round trip")
	}
}

func TestUnmarshalJSONErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"bad json", "{"},
		{"unknown kind", `{"services":[{"name":"x","kind":"magic"}]}`},
		{"bad pfail", `{"services":[{"name":"x","kind":"simple","pfail":"1 +"}]}`},
		{"bad completion", `{"services":[{"name":"x","kind":"composite","states":[{"name":"s","completion":"xor","dependency":"nosharing"}]}]}`},
		{"bad dependency", `{"services":[{"name":"x","kind":"composite","states":[{"name":"s","completion":"and","dependency":"maybe"}]}]}`},
		{"bad transition expr", `{"services":[{"name":"x","kind":"composite","transitions":[{"from":"Start","to":"End","prob":"1 +"}]}]}`},
		{"invalid composite", `{"services":[{"name":"x","kind":"composite","states":[{"name":"s","completion":"and","dependency":"nosharing"}]}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := UnmarshalJSON([]byte(tc.src)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestMarshalContainsExpressions(t *testing.T) {
	doc, err := ParseDSL(paperDSL)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{"log2(list)", `"kind": "simple"`, `"kind": "composite"`, `"connector": "lpc"`} {
		if !strings.Contains(s, want) {
			t.Errorf("marshaled JSON missing %q", want)
		}
	}
}

func TestParseConnectorSugarKinds(t *testing.T) {
	src := `
service mq queue {
    c 10
    m 270
}
service r3 retry {
    attempts 3
}
service rep kofn_transport {
    n 3
    k 2
    sharing 1
}
`
	doc, err := ParseDSL(src)
	if err != nil {
		t.Fatal(err)
	}
	mq, _ := doc.Service("mq")
	if got := len(mq.(*model.Composite).Flow().States()); got != 6 { // Start,End+4 legs
		t.Errorf("queue states = %d", got)
	}
	r3, _ := doc.Service("r3")
	st := r3.(*model.Composite).Flow().State("deliver")
	if st == nil || st.K != 1 || len(st.Requests) != 3 {
		t.Errorf("retry state = %+v", st)
	}
	rep, _ := doc.Service("rep")
	st = rep.(*model.Composite).Flow().State("deliver")
	if st == nil || st.K != 2 || st.Dependency != model.Sharing {
		t.Errorf("kofn_transport state = %+v", st)
	}
	// Bad parameters surface as parse errors.
	if _, err := ParseDSL("service x retry {\nattempts 0\n}"); err == nil {
		t.Error("expected error for zero attempts")
	}
	if _, err := ParseDSL("service x kofn_transport {\nn 2\nk 3\n}"); err == nil {
		t.Error("expected error for k > n")
	}
}

// TestShippedPaperADLFile lives in engine_test.go (external test
// package) for the same import-cycle reason.
