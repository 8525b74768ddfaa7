package core

import (
	"testing"

	"socrel/internal/assembly"
	"socrel/internal/expr"
)

// BenchmarkParseCompileClosedForm is the cost of loading a stored closed
// form: expr.Parse of the paper's remote search closed form (the text
// ClosedForm renders) plus expr.CompileProgram of the result over the
// service's formal parameters. It is the yardstick for storing closed
// forms with stored models: loading one pays only if this stays well
// under a compile.
func BenchmarkParseCompileClosedForm(b *testing.B) {
	remote, err := assembly.RemoteAssembly(assembly.DefaultPaperParams())
	if err != nil {
		b.Fatal(err)
	}
	ca, err := CompileParametric(remote, Options{}, ParametricOptions{}, "search")
	if err != nil {
		b.Fatal(err)
	}
	text, ok := ca.ClosedForm("search")
	if !ok {
		b.Fatalf("remote search has no closed form: %v", ca.ParametricFallbacks())
	}
	svc, err := remote.ServiceByName("search")
	if err != nil {
		b.Fatal(err)
	}
	formals := svc.FormalParams()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := expr.Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := expr.CompileProgram(e, formals, nil); err != nil {
			b.Fatal(err)
		}
	}
}
