package core

import (
	"socrel/internal/adl"
)

// CompileDocument is the compile-from-stored-form entry point: it
// materializes the named assembly out of an ADL document (the form the
// model store persists) and compiles it. With no roots given, every
// service of the assembly becomes a root, so any of them can be queried
// on the resulting artifact. BuildAssembly validates the assembly's
// services (those the document's parser has not), so the compile does not
// validate them again.
func CompileDocument(doc *adl.Document, assemblyName string, opts Options, roots ...string) (*CompiledAssembly, error) {
	asm, err := doc.BuildAssembly(assemblyName)
	if err != nil {
		return nil, err
	}
	if len(roots) == 0 {
		roots = asm.ServiceNames()
	}
	return compile(asm, opts, true, roots)
}
