package adl

import (
	"encoding/json"
	"fmt"

	"socrel/internal/assembly"
	"socrel/internal/expr"
	"socrel/internal/model"
)

// JSON data-transfer representation. Expressions are serialized as their
// source text (expr.Expr.String round-trips through expr.Parse).

type documentJSON struct {
	Services   []serviceJSON  `json:"services"`
	Assemblies []assemblyJSON `json:"assemblies,omitempty"`
}

type serviceJSON struct {
	Name   string             `json:"name"`
	Kind   string             `json:"kind"` // "simple" or "composite"
	Params []string           `json:"params,omitempty"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	// Simple services.
	Pfail string `json:"pfail,omitempty"`
	// Composite services.
	States      []stateJSON      `json:"states,omitempty"`
	Transitions []transitionJSON `json:"transitions,omitempty"`
}

type stateJSON struct {
	Name       string        `json:"name"`
	Completion string        `json:"completion"`
	K          int           `json:"k,omitempty"`
	Dependency string        `json:"dependency"`
	Requests   []requestJSON `json:"requests,omitempty"`
}

type requestJSON struct {
	Role       string   `json:"role"`
	Params     []string `json:"params,omitempty"`
	ConnParams []string `json:"connParams,omitempty"`
	Internal   string   `json:"internal,omitempty"`
}

type transitionJSON struct {
	From string `json:"from"`
	To   string `json:"to"`
	Prob string `json:"prob"`
}

type assemblyJSON struct {
	Name     string        `json:"name"`
	Bindings []bindingJSON `json:"bindings"`
}

type bindingJSON struct {
	Caller    string `json:"caller"`
	Role      string `json:"role"`
	Provider  string `json:"provider"`
	Connector string `json:"connector,omitempty"`
}

// MarshalJSON serializes the document. Simple services (including the
// cpu/network/connector sugar kinds) serialize uniformly as kind "simple"
// with their failure-law expression; the representation is canonical, not
// sugar-preserving.
func MarshalJSON(d *Document) ([]byte, error) {
	out := documentJSON{}
	for _, svc := range d.Services {
		sj, err := serviceToJSON(svc)
		if err != nil {
			return nil, err
		}
		out.Services = append(out.Services, sj)
	}
	for _, a := range d.Assemblies {
		aj := assemblyJSON{Name: a.Name}
		for _, b := range a.Bindings {
			aj.Bindings = append(aj.Bindings, bindingJSON(b))
		}
		out.Assemblies = append(out.Assemblies, aj)
	}
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalJSON parses a document serialized by MarshalJSON. Input in
// MarshalJSON's own output language, such as a stored record, is decoded
// in one pass (decodeCanonical); anything else goes through
// encoding/json, which gives the same document or the error.
func UnmarshalJSON(data []byte) (*Document, error) {
	var in documentJSON
	if !decodeCanonical(data, &in) {
		in = documentJSON{}
		if err := json.Unmarshal(data, &in); err != nil {
			return nil, fmt.Errorf("adl: %w", err)
		}
	}
	doc := &Document{}
	for _, sj := range in.Services {
		svc, err := serviceFromJSON(sj)
		if err != nil {
			return nil, err
		}
		if err := svc.Validate(); err != nil {
			return nil, fmt.Errorf("adl: %w", err)
		}
		doc.Services = append(doc.Services, svc)
	}
	for _, aj := range in.Assemblies {
		def := AssemblyDef{Name: aj.Name}
		for _, bj := range aj.Bindings {
			def.Bindings = append(def.Bindings, assembly.Binding(bj))
		}
		doc.Assemblies = append(doc.Assemblies, def)
	}
	doc.markParsed()
	return doc, nil
}

func serviceToJSON(svc model.Service) (serviceJSON, error) {
	switch s := svc.(type) {
	case *model.Simple:
		return serviceJSON{
			Name:   s.Name(),
			Kind:   "simple",
			Params: s.FormalParams(),
			Attrs:  s.Attributes(),
			Pfail:  s.PfailExpr().String(),
		}, nil
	case *model.Composite:
		sj := serviceJSON{
			Name:   s.Name(),
			Kind:   "composite",
			Params: s.FormalParams(),
			Attrs:  s.Attributes(),
		}
		for _, st := range s.Flow().States() {
			if st.Name == model.StartState || st.Name == model.EndState {
				continue
			}
			stj := stateJSON{
				Name:       st.Name,
				Completion: completionToJSON(st.Completion),
				K:          st.K,
				Dependency: dependencyToJSON(st.Dependency),
			}
			for _, r := range st.Requests {
				rj := requestJSON{Role: r.Role}
				for _, e := range r.Params {
					rj.Params = append(rj.Params, e.String())
				}
				for _, e := range r.ConnParams {
					rj.ConnParams = append(rj.ConnParams, e.String())
				}
				if r.Internal != nil {
					rj.Internal = r.Internal.String()
				}
				stj.Requests = append(stj.Requests, rj)
			}
			sj.States = append(sj.States, stj)
		}
		for _, tr := range s.Flow().Transitions() {
			sj.Transitions = append(sj.Transitions, transitionJSON{
				From: tr.From, To: tr.To, Prob: tr.Prob.String(),
			})
		}
		return sj, nil
	default:
		return serviceJSON{}, fmt.Errorf("%w: unsupported service type %T", model.ErrInvalidService, svc)
	}
}

func serviceFromJSON(sj serviceJSON) (model.Service, error) {
	switch sj.Kind {
	case "simple":
		pfail, err := expr.Parse(sj.Pfail)
		if err != nil {
			return nil, fmt.Errorf("adl: service %s pfail: %w", sj.Name, err)
		}
		return model.NewSimple(sj.Name, sj.Params, sj.Attrs, pfail), nil
	case "composite":
		comp := model.NewComposite(sj.Name, sj.Params, sj.Attrs)
		for _, stj := range sj.States {
			completion, err := completionFromJSON(stj.Completion)
			if err != nil {
				return nil, fmt.Errorf("adl: service %s state %s: %w", sj.Name, stj.Name, err)
			}
			dependency, err := dependencyFromJSON(stj.Dependency)
			if err != nil {
				return nil, fmt.Errorf("adl: service %s state %s: %w", sj.Name, stj.Name, err)
			}
			st, err := comp.Flow().AddState(stj.Name, completion, dependency)
			if err != nil {
				return nil, fmt.Errorf("adl: %w", err)
			}
			st.K = stj.K
			for _, rj := range stj.Requests {
				req := model.Request{Role: rj.Role}
				for _, src := range rj.Params {
					e, err := expr.Parse(src)
					if err != nil {
						return nil, fmt.Errorf("adl: service %s request %s param %q: %w", sj.Name, rj.Role, src, err)
					}
					req.Params = append(req.Params, e)
				}
				for _, src := range rj.ConnParams {
					e, err := expr.Parse(src)
					if err != nil {
						return nil, fmt.Errorf("adl: service %s request %s connector param %q: %w", sj.Name, rj.Role, src, err)
					}
					req.ConnParams = append(req.ConnParams, e)
				}
				if rj.Internal != "" {
					e, err := expr.Parse(rj.Internal)
					if err != nil {
						return nil, fmt.Errorf("adl: service %s request %s internal %q: %w", sj.Name, rj.Role, rj.Internal, err)
					}
					req.Internal = e
				}
				st.AddRequest(req)
			}
		}
		for _, tj := range sj.Transitions {
			prob, err := expr.Parse(tj.Prob)
			if err != nil {
				return nil, fmt.Errorf("adl: service %s transition %s->%s: %w", sj.Name, tj.From, tj.To, err)
			}
			if err := comp.Flow().AddTransition(tj.From, tj.To, prob); err != nil {
				return nil, fmt.Errorf("adl: %w", err)
			}
		}
		return comp, nil
	default:
		return nil, fmt.Errorf("adl: service %s: unknown kind %q", sj.Name, sj.Kind)
	}
}

func completionToJSON(c model.Completion) string {
	switch c {
	case model.AND:
		return "and"
	case model.OR:
		return "or"
	case model.KOfN:
		return "kofn"
	default:
		return ""
	}
}

func completionFromJSON(s string) (model.Completion, error) {
	switch s {
	case "and":
		return model.AND, nil
	case "or":
		return model.OR, nil
	case "kofn":
		return model.KOfN, nil
	default:
		return 0, fmt.Errorf("unknown completion %q", s)
	}
}

func dependencyToJSON(d model.Dependency) string {
	switch d {
	case model.NoSharing:
		return "nosharing"
	case model.Sharing:
		return "sharing"
	default:
		return ""
	}
}

func dependencyFromJSON(s string) (model.Dependency, error) {
	switch s {
	case "nosharing":
		return model.NoSharing, nil
	case "sharing":
		return model.Sharing, nil
	default:
		return 0, fmt.Errorf("unknown dependency %q", s)
	}
}
