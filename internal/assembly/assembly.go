// Package assembly provides the standard model.Resolver: a set of service
// definitions plus the bindings that assemble them — for every
// (caller, role) pair, which provider delivers the role and which connector
// transports the request. Different assemblies of the same services (the
// paper's local vs. remote example) differ only in their bindings.
package assembly

import (
	"errors"
	"fmt"
	"sort"

	"socrel/internal/model"
)

// ErrDuplicateService is returned when two definitions share a name.
var ErrDuplicateService = errors.New("assembly: duplicate service")

// Binding connects a required role of a caller to a provider through a
// connector.
type Binding struct {
	// Caller is the composite service whose flow requests the role.
	Caller string
	// Role is the role name used in the caller's requests.
	Role string
	// Provider is the concrete service bound to the role.
	Provider string
	// Connector is the connector service transporting requests
	// (empty = perfect connection, e.g. the "local processing" connectors
	// of section 3.1).
	Connector string
}

// Assembly is a named collection of services and bindings implementing
// model.Resolver.
type Assembly struct {
	name     string
	services map[string]model.Service
	order    []string
	bindings map[string]Binding // key: caller + "\x00" + role
}

var _ model.Resolver = (*Assembly)(nil)

// New returns an empty assembly with the given name.
func New(name string) *Assembly {
	return &Assembly{
		name:     name,
		services: make(map[string]model.Service),
		bindings: make(map[string]Binding),
	}
}

// Name returns the assembly name.
func (a *Assembly) Name() string { return a.name }

// AddService registers a service definition.
func (a *Assembly) AddService(svc model.Service) error {
	if _, ok := a.services[svc.Name()]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateService, svc.Name())
	}
	a.services[svc.Name()] = svc
	a.order = append(a.order, svc.Name())
	return nil
}

// ReplaceService swaps an existing service definition for an updated one
// of the same name, preserving registration order and bindings. This is
// the re-prediction hook: learned failure-law parameters re-enter the
// model by replacing the drifted service in place.
func (a *Assembly) ReplaceService(svc model.Service) error {
	if _, ok := a.services[svc.Name()]; !ok {
		return fmt.Errorf("%w: %q", model.ErrUnknownService, svc.Name())
	}
	a.services[svc.Name()] = svc
	return nil
}

// MustAddService registers a service, panicking on duplicates; intended for
// statically known-correct assembly constructions.
func (a *Assembly) MustAddService(svc model.Service) {
	if err := a.AddService(svc); err != nil {
		panic(err)
	}
}

// AddBinding records that requests for role made by caller are served by
// provider through connector (empty connector = perfect connection).
// Rebinding an existing (caller, role) pair overwrites it, which is how
// alternative architectures are explored.
func (a *Assembly) AddBinding(caller, role, provider, connector string) {
	a.bindings[bindKey(caller, role)] = Binding{
		Caller: caller, Role: role, Provider: provider, Connector: connector,
	}
}

// ServiceNames returns the registered service names in insertion order.
func (a *Assembly) ServiceNames() []string { return append([]string(nil), a.order...) }

// Bindings returns all bindings sorted by caller then role.
func (a *Assembly) Bindings() []Binding {
	out := make([]Binding, 0, len(a.bindings))
	for _, b := range a.bindings {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Caller != out[j].Caller {
			return out[i].Caller < out[j].Caller
		}
		return out[i].Role < out[j].Role
	})
	return out
}

// ServiceByName implements model.Resolver.
func (a *Assembly) ServiceByName(name string) (model.Service, error) {
	svc, ok := a.services[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", model.ErrUnknownService, name)
	}
	return svc, nil
}

// Bind implements model.Resolver: it resolves a (caller, role) pair to the
// bound provider and connector, or model.ErrNoBinding.
func (a *Assembly) Bind(caller, role string) (provider, connector string, err error) {
	if b, ok := a.bindings[bindKey(caller, role)]; ok {
		return b.Provider, b.Connector, nil
	}
	return "", "", fmt.Errorf("%w: %s/%s", model.ErrNoBinding, caller, role)
}

func bindKey(caller, role string) string { return caller + "\x00" + role }

// Validate checks that every service definition is valid, that every
// binding references known services, and that every role requested by a
// registered composite resolves — either through a binding or directly to
// a registered service name.
func (a *Assembly) Validate() error {
	for _, name := range a.order {
		if err := a.services[name].Validate(); err != nil {
			return fmt.Errorf("assembly %s: %w", a.name, err)
		}
	}
	return a.ValidateBindings()
}

// ValidateBindings makes Validate's checks except the validation of each
// service definition, for a caller that has validated the definitions
// already: every binding references known services, and every role
// requested by a registered composite resolves.
func (a *Assembly) ValidateBindings() error {
	for _, b := range a.bindings {
		if _, ok := a.services[b.Caller]; !ok {
			return fmt.Errorf("assembly %s: binding %s/%s: %w: caller %q", a.name, b.Caller, b.Role, model.ErrUnknownService, b.Caller)
		}
		if _, ok := a.services[b.Provider]; !ok {
			return fmt.Errorf("assembly %s: binding %s/%s: %w: provider %q", a.name, b.Caller, b.Role, model.ErrUnknownService, b.Provider)
		}
		if b.Connector != "" {
			if _, ok := a.services[b.Connector]; !ok {
				return fmt.Errorf("assembly %s: binding %s/%s: %w: connector %q", a.name, b.Caller, b.Role, model.ErrUnknownService, b.Connector)
			}
		}
	}
	for _, name := range a.order {
		comp, ok := a.services[name].(*model.Composite)
		if !ok {
			continue
		}
		for _, role := range comp.Roles() {
			if _, _, err := a.Bind(name, role); err == nil {
				continue
			}
			if _, ok := a.services[role]; !ok {
				return fmt.Errorf("assembly %s: %s requires role %q with no binding and no service of that name", a.name, name, role)
			}
		}
	}
	return nil
}

// Clone returns a copy of the assembly sharing the (immutable) service
// definitions but with an independent binding set, so alternative
// architectures can be derived without disturbing the original.
func (a *Assembly) Clone(name string) *Assembly {
	out := New(name)
	for _, n := range a.order {
		out.services[n] = a.services[n]
		out.order = append(out.order, n)
	}
	for k, v := range a.bindings {
		out.bindings[k] = v
	}
	return out
}
