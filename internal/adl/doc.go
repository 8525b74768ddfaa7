// Package adl implements a machine-processable representation of analytic
// interfaces and assemblies — the role section 5 of the paper assigns to
// extended OWL-S/BPEL descriptions. Two concrete syntaxes are provided over
// one document model:
//
//   - a compact, line-oriented textual DSL (ParseDSL) for humans, and
//   - a JSON codec (MarshalJSON / UnmarshalJSON helpers on Document) for
//     tooling.
//
// Parse and Load accept either syntax, telling them apart by the first
// non-space byte.
//
// A Document carries service definitions (with their usage-profile flows,
// failure laws and parameter-dependency expressions, all serialized as
// expression source text) and named assemblies (binding sets). Documents
// build directly into assembly.Assembly values ready for the prediction
// engine.
//
// # DSL overview
//
// Statements are line-oriented; '#' starts a comment; blocks open with a
// trailing '{' and close with a line containing only '}'.
//
//	service cpu1 cpu {
//	    speed 1e9
//	    rate 1e-10
//	}
//	service net12 network {
//	    bandwidth 1e5
//	    rate 5e-3
//	}
//	service loc1 perfect            # optionally: perfect(ip, op)
//	service flaky constant(0.3)
//	service lpc1 lpc {              # Figure 2 LPC connector
//	    l 1000
//	}
//	service rpc1 rpc {              # Figure 2 RPC connector
//	    c 10
//	    m 270
//	}
//	service leaf simple(n) {
//	    attr k 100
//	    pfail n / k
//	}
//	service search composite(elem, list, res) {
//	    attr phi 1e-7
//	    attr q 0.9
//	    state sort and nosharing {
//	        call sort(list) connector(elem + list, res)
//	    }
//	    state lookup and nosharing {
//	        call cpu(log2(list)) internal 1 - (1 - phi)^log2(list)
//	    }
//	    transition Start -> sort prob q
//	    transition Start -> lookup prob 1 - q
//	    transition sort -> lookup prob 1
//	    transition lookup -> End prob 1
//	}
//	assembly local {
//	    bind search.sort -> sort1 via lpc1
//	    bind search.cpu -> cpu1
//	}
//
// State headers are "state NAME COMPLETION DEPENDENCY" where COMPLETION is
// one of and / or / kofn K, and DEPENDENCY is nosharing / sharing.
package adl

import (
	"errors"
	"fmt"

	"socrel/internal/assembly"
	"socrel/internal/model"
)

// Document is the parsed content of an ADL source: service definitions and
// named assemblies over them.
//
// Service definitions are immutable once parsed: Parse, ParseDSL and
// UnmarshalJSON validate every service they build, and BuildAssembly does
// not validate those again. A service put into Services by other code is
// validated by BuildAssembly.
type Document struct {
	// Services holds the definitions in declaration order.
	Services []model.Service
	// Assemblies holds the binding sets in declaration order.
	Assemblies []AssemblyDef

	// parsed is a copy of Services as the parser validated them.
	parsed []model.Service
}

// markParsed records that the parser has validated every service.
func (d *Document) markParsed() {
	d.parsed = append([]model.Service(nil), d.Services...)
}

// wasParsed reports whether Services[i] is the service the parser
// validated at that index.
func (d *Document) wasParsed(i int) bool {
	return i < len(d.parsed) && d.parsed[i] == d.Services[i]
}

// AssemblyDef is a named set of bindings.
type AssemblyDef struct {
	Name     string
	Bindings []assembly.Binding
}

// Service returns the named service definition.
func (d *Document) Service(name string) (model.Service, bool) {
	for _, s := range d.Services {
		if s.Name() == name {
			return s, true
		}
	}
	return nil, false
}

// BuildAssembly materializes the named assembly: the services reachable
// from its bindings (callers, providers, connectors, and — transitively —
// any role of an included composite that resolves directly by service
// name), plus the assembly's bindings, validated. Services of the document
// that only belong to other assemblies (e.g. the RPC connector in the
// paper's local assembly) are excluded. An empty name selects the
// document's sole assembly (see AssemblyName). The assembly passes
// assembly.Validate, and Compile need not validate its services again.
func (d *Document) BuildAssembly(name string) (*assembly.Assembly, error) {
	name, err := d.AssemblyName(name)
	if err != nil {
		return nil, err
	}
	var def *AssemblyDef
	for i := range d.Assemblies {
		if d.Assemblies[i].Name == name {
			def = &d.Assemblies[i]
			break
		}
	}
	if def == nil {
		return nil, fmt.Errorf("adl: %w: assembly %q", model.ErrUnknownService, name)
	}
	needed := make(map[string]bool)
	for _, b := range def.Bindings {
		needed[b.Caller] = true
		needed[b.Provider] = true
		if b.Connector != "" {
			needed[b.Connector] = true
		}
	}
	// Close over direct-name role references of included composites.
	for changed := true; changed; {
		changed = false
		for svcName := range needed {
			svc, ok := d.Service(svcName)
			if !ok {
				continue // Validate will report it
			}
			comp, ok := svc.(*model.Composite)
			if !ok {
				continue
			}
			for _, role := range comp.Roles() {
				if hasBinding(def.Bindings, svcName, role) {
					continue
				}
				if _, ok := d.Service(role); ok && !needed[role] {
					needed[role] = true
					changed = true
				}
			}
		}
	}
	asm := assembly.New(name)
	for _, svc := range d.Services {
		if !needed[svc.Name()] {
			continue
		}
		if err := asm.AddService(svc); err != nil {
			return nil, fmt.Errorf("adl: %w", err)
		}
	}
	// The checks of asm.Validate, with each service validated only if the
	// parser has not done so.
	for i, svc := range d.Services {
		if !needed[svc.Name()] || d.wasParsed(i) {
			continue
		}
		if err := svc.Validate(); err != nil {
			return nil, fmt.Errorf("adl: assembly %s: %w", name, err)
		}
	}
	for _, b := range def.Bindings {
		asm.AddBinding(b.Caller, b.Role, b.Provider, b.Connector)
	}
	if err := asm.ValidateBindings(); err != nil {
		return nil, fmt.Errorf("adl: %w", err)
	}
	return asm, nil
}

func hasBinding(bindings []assembly.Binding, caller, role string) bool {
	for _, b := range bindings {
		if b.Caller == caller && b.Role == role {
			return true
		}
	}
	return false
}

// ErrNoSoleAssembly reports an empty assembly name on a document that
// does not define exactly one assembly.
var ErrNoSoleAssembly = errors.New("adl: no sole assembly")

// AssemblyName resolves an assembly request: a non-empty name is returned
// unchanged, and the empty name selects the document's sole assembly,
// failing with ErrNoSoleAssembly when it defines none or several.
func (d *Document) AssemblyName(name string) (string, error) {
	if name != "" {
		return name, nil
	}
	if len(d.Assemblies) != 1 {
		return "", fmt.Errorf("%w: document defines assemblies %v; pick one", ErrNoSoleAssembly, d.AssemblyNames())
	}
	return d.Assemblies[0].Name, nil
}

// AssemblyNames returns the declared assembly names in order.
func (d *Document) AssemblyNames() []string {
	out := make([]string, len(d.Assemblies))
	for i, a := range d.Assemblies {
		out[i] = a.Name
	}
	return out
}
