package adl

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"socrel/internal/assembly"
	"socrel/internal/expr"
	"socrel/internal/model"
)

// ParseError describes a DSL parse failure with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("adl: line %d: %s", e.Line, e.Msg)
}

// ErrSyntax is a sentinel all ParseErrors match with errors.Is.
var ErrSyntax = errors.New("adl: syntax error")

// Is reports whether target is ErrSyntax.
func (e *ParseError) Is(target error) bool { return target == ErrSyntax }

// ParseDSL parses ADL source text into a Document. See the package comment
// for the grammar.
func ParseDSL(source string) (*Document, error) {
	p := &dslParser{lines: strings.Split(source, "\n")}
	doc := &Document{}
	for {
		line, ok := p.next()
		if !ok {
			break
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "service":
			svc, err := p.parseService(line)
			if err != nil {
				return nil, err
			}
			if _, dup := doc.Service(svc.Name()); dup {
				return nil, p.errf("duplicate service %q", svc.Name())
			}
			doc.Services = append(doc.Services, svc)
		case "assembly":
			def, err := p.parseAssembly(line)
			if err != nil {
				return nil, err
			}
			doc.Assemblies = append(doc.Assemblies, *def)
		default:
			return nil, p.errf("expected 'service' or 'assembly', got %q", fields[0])
		}
	}
	for _, svc := range doc.Services {
		if err := svc.Validate(); err != nil {
			return nil, fmt.Errorf("adl: %w", err)
		}
	}
	doc.markParsed()
	return doc, nil
}

type dslParser struct {
	lines []string
	pos   int // index of the next line to read
}

// next returns the next non-empty line with comments stripped.
func (p *dslParser) next() (string, bool) {
	for p.pos < len(p.lines) {
		line := p.lines[p.pos]
		p.pos++
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line != "" {
			return line, true
		}
	}
	return "", false
}

func (p *dslParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.pos, Msg: fmt.Sprintf(format, args...)}
}

// splitHeader splits "service NAME KIND(arg, arg) {" into name, kind, args
// and whether a block follows.
func (p *dslParser) parseService(line string) (model.Service, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "service"))
	hasBlock := strings.HasSuffix(rest, "{")
	if hasBlock {
		rest = strings.TrimSpace(strings.TrimSuffix(rest, "{"))
	}
	sp := strings.IndexAny(rest, " \t")
	if sp < 0 {
		return nil, p.errf("service needs a name and a kind")
	}
	name := rest[:sp]
	kindPart := strings.TrimSpace(rest[sp+1:])
	kind := kindPart
	var argSrc string
	if i := strings.Index(kindPart, "("); i >= 0 {
		if !strings.HasSuffix(kindPart, ")") {
			return nil, p.errf("unbalanced parentheses in service header")
		}
		kind = kindPart[:i]
		argSrc = kindPart[i+1 : len(kindPart)-1]
	}

	switch kind {
	case "cpu":
		attrs, err := p.parseAttrBlock(hasBlock, "speed", "rate")
		if err != nil {
			return nil, err
		}
		return model.NewCPU(name, attrs["speed"], attrs["rate"]), nil
	case "network":
		attrs, err := p.parseAttrBlock(hasBlock, "bandwidth", "rate")
		if err != nil {
			return nil, err
		}
		return model.NewNetwork(name, attrs["bandwidth"], attrs["rate"]), nil
	case "lpc":
		attrs, err := p.parseAttrBlock(hasBlock, "l")
		if err != nil {
			return nil, err
		}
		lpc, err := model.NewLPC(name, attrs["l"])
		if err != nil {
			return nil, p.errf("lpc %s: %v", name, err)
		}
		return lpc, nil
	case "rpc":
		attrs, err := p.parseAttrBlock(hasBlock, "c", "m")
		if err != nil {
			return nil, err
		}
		rpc, err := model.NewRPC(name, attrs["c"], attrs["m"])
		if err != nil {
			return nil, p.errf("rpc %s: %v", name, err)
		}
		return rpc, nil
	case "queue":
		attrs, err := p.parseAttrBlock(hasBlock, "c", "m")
		if err != nil {
			return nil, err
		}
		q, err := model.NewQueue(name, attrs["c"], attrs["m"])
		if err != nil {
			return nil, p.errf("queue %s: %v", name, err)
		}
		return q, nil
	case "retry":
		attrs, err := p.parseAttrBlock(hasBlock, "attempts")
		if err != nil {
			return nil, err
		}
		r, err := model.NewRetry(name, int(attrs["attempts"]))
		if err != nil {
			return nil, p.errf("retry %s: %v", name, err)
		}
		return r, nil
	case "kofn_transport":
		// Optional attribute "sharing" (nonzero = the channels share one
		// underlying resource).
		attrs, err := p.parseAttrBlock(hasBlock, "n", "k")
		if err != nil {
			return nil, err
		}
		dep := model.NoSharing
		if attrs["sharing"] != 0 {
			dep = model.Sharing
		}
		kt, err := model.NewKOfNTransport(name, int(attrs["n"]), int(attrs["k"]), dep)
		if err != nil {
			return nil, p.errf("kofn_transport %s: %v", name, err)
		}
		return kt, nil
	case "perfect":
		if hasBlock {
			return nil, p.errf("perfect service takes no block")
		}
		return model.NewPerfect(name, splitIdentList(argSrc)...), nil
	case "constant":
		if hasBlock {
			return nil, p.errf("constant service takes no block")
		}
		parts := splitTopLevel(argSrc)
		if len(parts) == 0 {
			return nil, p.errf("constant service needs a probability")
		}
		pv, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, p.errf("constant probability: %v", err)
		}
		var formals []string
		for _, f := range parts[1:] {
			formals = append(formals, strings.TrimSpace(f))
		}
		return model.NewConstant(name, pv, formals...), nil
	case "simple":
		return p.parseSimpleBody(name, splitIdentList(argSrc), hasBlock)
	case "composite":
		return p.parseCompositeBody(name, splitIdentList(argSrc), hasBlock)
	default:
		return nil, p.errf("unknown service kind %q", kind)
	}
}

// parseAttrBlock reads "key value" lines until '}' and requires exactly the
// given keys.
func (p *dslParser) parseAttrBlock(hasBlock bool, required ...string) (map[string]float64, error) {
	if !hasBlock {
		return nil, p.errf("service kind requires a { ... } block with: %s", strings.Join(required, ", "))
	}
	attrs := make(map[string]float64)
	for {
		line, ok := p.next()
		if !ok {
			return nil, p.errf("unexpected end of input in block")
		}
		if line == "}" {
			break
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, p.errf("expected 'key value', got %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, p.errf("value of %s: %v", fields[0], err)
		}
		attrs[fields[0]] = v
	}
	for _, r := range required {
		if _, ok := attrs[r]; !ok {
			return nil, p.errf("missing attribute %q", r)
		}
	}
	return attrs, nil
}

func (p *dslParser) parseSimpleBody(name string, formals []string, hasBlock bool) (model.Service, error) {
	if !hasBlock {
		return nil, p.errf("simple service requires a block with a pfail law")
	}
	attrs := model.Attrs{}
	var pfail expr.Expr
	for {
		line, ok := p.next()
		if !ok {
			return nil, p.errf("unexpected end of input in simple service %s", name)
		}
		if line == "}" {
			break
		}
		switch {
		case strings.HasPrefix(line, "attr "):
			if err := p.parseAttrLine(line, attrs); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "pfail "):
			e, err := expr.Parse(strings.TrimSpace(strings.TrimPrefix(line, "pfail")))
			if err != nil {
				return nil, p.errf("pfail: %v", err)
			}
			pfail = e
		default:
			return nil, p.errf("unexpected statement in simple service: %q", line)
		}
	}
	if pfail == nil {
		return nil, p.errf("simple service %s has no pfail law", name)
	}
	return model.NewSimple(name, formals, attrs, pfail), nil
}

func (p *dslParser) parseAttrLine(line string, attrs model.Attrs) error {
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return p.errf("expected 'attr name value', got %q", line)
	}
	v, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return p.errf("attr %s: %v", fields[1], err)
	}
	attrs[fields[1]] = v
	return nil
}

func (p *dslParser) parseCompositeBody(name string, formals []string, hasBlock bool) (model.Service, error) {
	if !hasBlock {
		return nil, p.errf("composite service requires a block")
	}
	attrs := model.Attrs{}
	type stateDef struct {
		st   *stateHeader
		reqs []model.Request
	}
	var states []stateDef
	type transDef struct{ from, to, prob string }
	var transitions []transDef

	for {
		line, ok := p.next()
		if !ok {
			return nil, p.errf("unexpected end of input in composite %s", name)
		}
		if line == "}" {
			break
		}
		switch {
		case strings.HasPrefix(line, "attr "):
			if err := p.parseAttrLine(line, attrs); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "state "):
			hdr, err := p.parseStateHeader(line)
			if err != nil {
				return nil, err
			}
			reqs, err := p.parseStateBody()
			if err != nil {
				return nil, err
			}
			states = append(states, stateDef{st: hdr, reqs: reqs})
		case strings.HasPrefix(line, "transition "):
			rest := strings.TrimSpace(strings.TrimPrefix(line, "transition"))
			arrow := strings.Index(rest, "->")
			if arrow < 0 {
				return nil, p.errf("transition needs '->': %q", line)
			}
			from := strings.TrimSpace(rest[:arrow])
			rest = strings.TrimSpace(rest[arrow+2:])
			probIdx := strings.Index(rest, " prob ")
			if probIdx < 0 {
				return nil, p.errf("transition needs 'prob EXPR': %q", line)
			}
			to := strings.TrimSpace(rest[:probIdx])
			probSrc := strings.TrimSpace(rest[probIdx+6:])
			transitions = append(transitions, transDef{from: from, to: to, prob: probSrc})
		default:
			return nil, p.errf("unexpected statement in composite: %q", line)
		}
	}

	comp := model.NewComposite(name, formals, attrs)
	for _, sd := range states {
		st, err := comp.Flow().AddState(sd.st.name, sd.st.completion, sd.st.dependency)
		if err != nil {
			return nil, fmt.Errorf("adl: %w", err)
		}
		st.K = sd.st.k
		for _, r := range sd.reqs {
			st.AddRequest(r)
		}
	}
	for _, td := range transitions {
		prob, err := expr.Parse(td.prob)
		if err != nil {
			return nil, p.errf("transition probability %q: %v", td.prob, err)
		}
		if err := comp.Flow().AddTransition(td.from, td.to, prob); err != nil {
			return nil, fmt.Errorf("adl: %w", err)
		}
	}
	return comp, nil
}

type stateHeader struct {
	name       string
	completion model.Completion
	k          int
	dependency model.Dependency
}

// parseStateHeader parses "state NAME COMPLETION [K] DEPENDENCY {".
func (p *dslParser) parseStateHeader(line string) (*stateHeader, error) {
	if !strings.HasSuffix(line, "{") {
		return nil, p.errf("state header must end with '{': %q", line)
	}
	fields := strings.Fields(strings.TrimSuffix(line, "{"))
	if len(fields) < 4 {
		return nil, p.errf("state header needs 'state NAME COMPLETION DEPENDENCY': %q", line)
	}
	hdr := &stateHeader{name: fields[1]}
	rest := fields[2:]
	switch rest[0] {
	case "and":
		hdr.completion = model.AND
	case "or":
		hdr.completion = model.OR
	case "kofn":
		hdr.completion = model.KOfN
		if len(rest) < 3 {
			return nil, p.errf("kofn needs a threshold: %q", line)
		}
		k, err := strconv.Atoi(rest[1])
		if err != nil {
			return nil, p.errf("kofn threshold: %v", err)
		}
		hdr.k = k
		rest = rest[1:]
	default:
		return nil, p.errf("unknown completion model %q", rest[0])
	}
	switch rest[1] {
	case "nosharing":
		hdr.dependency = model.NoSharing
	case "sharing":
		hdr.dependency = model.Sharing
	default:
		return nil, p.errf("unknown dependency model %q", rest[1])
	}
	return hdr, nil
}

// parseStateBody parses "call ..." lines until '}'.
func (p *dslParser) parseStateBody() ([]model.Request, error) {
	var reqs []model.Request
	for {
		line, ok := p.next()
		if !ok {
			return nil, p.errf("unexpected end of input in state body")
		}
		if line == "}" {
			return reqs, nil
		}
		if !strings.HasPrefix(line, "call ") {
			return nil, p.errf("expected 'call' in state body, got %q", line)
		}
		req, err := p.parseCall(strings.TrimSpace(strings.TrimPrefix(line, "call")))
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, *req)
	}
}

// parseCall parses "ROLE(args) [connector(args)] [internal EXPR]".
func (p *dslParser) parseCall(src string) (*model.Request, error) {
	role, args, rest, err := p.takeCallHead(src)
	if err != nil {
		return nil, err
	}
	req := &model.Request{Role: role}
	if req.Params, err = p.parseExprList(args); err != nil {
		return nil, err
	}
	rest = strings.TrimSpace(rest)
	if strings.HasPrefix(rest, "connector") {
		afterKw := strings.TrimSpace(strings.TrimPrefix(rest, "connector"))
		if !strings.HasPrefix(afterKw, "(") {
			return nil, p.errf("connector needs an argument list: %q", src)
		}
		inner, tail, err := takeBalanced(afterKw)
		if err != nil {
			return nil, p.errf("connector arguments: %v", err)
		}
		if req.ConnParams, err = p.parseExprList(inner); err != nil {
			return nil, err
		}
		rest = strings.TrimSpace(tail)
	}
	if strings.HasPrefix(rest, "internal") {
		src := strings.TrimSpace(strings.TrimPrefix(rest, "internal"))
		e, err := expr.Parse(src)
		if err != nil {
			return nil, p.errf("internal failure expression: %v", err)
		}
		req.Internal = e
		rest = ""
	}
	if rest != "" {
		return nil, p.errf("unexpected trailing text in call: %q", rest)
	}
	return req, nil
}

// takeCallHead splits "role(args) tail" into its pieces.
func (p *dslParser) takeCallHead(src string) (role, args, tail string, err error) {
	i := strings.Index(src, "(")
	if i < 0 {
		// A bare role with no parameters.
		fields := strings.Fields(src)
		if len(fields) == 0 {
			return "", "", "", p.errf("empty call")
		}
		return fields[0], "", strings.TrimSpace(strings.TrimPrefix(src, fields[0])), nil
	}
	role = strings.TrimSpace(src[:i])
	inner, rest, berr := takeBalanced(src[i:])
	if berr != nil {
		return "", "", "", p.errf("call arguments: %v", berr)
	}
	return role, inner, rest, nil
}

// takeBalanced consumes a balanced "(...)" prefix and returns its inner
// text and the remainder.
func takeBalanced(src string) (inner, rest string, err error) {
	if len(src) == 0 || src[0] != '(' {
		return "", "", fmt.Errorf("expected '('")
	}
	depth := 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return src[1:i], src[i+1:], nil
			}
		}
	}
	return "", "", fmt.Errorf("unbalanced parentheses in %q", src)
}

// splitTopLevel splits a comma-separated list at depth zero.
func splitTopLevel(src string) []string {
	src = strings.TrimSpace(src)
	if src == "" {
		return nil
	}
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, src[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, src[start:])
	return parts
}

func splitIdentList(src string) []string {
	var out []string
	for _, part := range splitTopLevel(src) {
		if s := strings.TrimSpace(part); s != "" {
			out = append(out, s)
		}
	}
	return out
}

func (p *dslParser) parseExprList(src string) ([]expr.Expr, error) {
	parts := splitTopLevel(src)
	out := make([]expr.Expr, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		e, err := expr.Parse(part)
		if err != nil {
			return nil, p.errf("expression %q: %v", part, err)
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// parseAssembly parses "assembly NAME {" and its bind statements.
func (p *dslParser) parseAssembly(line string) (*AssemblyDef, error) {
	if !strings.HasSuffix(line, "{") {
		return nil, p.errf("assembly header must end with '{': %q", line)
	}
	fields := strings.Fields(strings.TrimSuffix(line, "{"))
	if len(fields) != 2 {
		return nil, p.errf("assembly header needs a name: %q", line)
	}
	def := &AssemblyDef{Name: fields[1]}
	for {
		l, ok := p.next()
		if !ok {
			return nil, p.errf("unexpected end of input in assembly %s", def.Name)
		}
		if l == "}" {
			return def, nil
		}
		if !strings.HasPrefix(l, "bind ") {
			return nil, p.errf("expected 'bind' in assembly body, got %q", l)
		}
		b, err := p.parseBind(strings.TrimSpace(strings.TrimPrefix(l, "bind")))
		if err != nil {
			return nil, err
		}
		def.Bindings = append(def.Bindings, *b)
	}
}

// parseBind parses "CALLER.ROLE -> PROVIDER [via CONNECTOR]".
func (p *dslParser) parseBind(src string) (*assembly.Binding, error) {
	arrow := strings.Index(src, "->")
	if arrow < 0 {
		return nil, p.errf("bind needs '->': %q", src)
	}
	left := strings.TrimSpace(src[:arrow])
	right := strings.TrimSpace(src[arrow+2:])
	dot := strings.LastIndex(left, ".")
	if dot < 0 {
		return nil, p.errf("bind left side needs CALLER.ROLE: %q", src)
	}
	b := &assembly.Binding{Caller: left[:dot], Role: left[dot+1:]}
	fields := strings.Fields(right)
	switch len(fields) {
	case 1:
		b.Provider = fields[0]
	case 3:
		if fields[1] != "via" {
			return nil, p.errf("bind right side must be 'PROVIDER [via CONNECTOR]': %q", src)
		}
		b.Provider, b.Connector = fields[0], fields[2]
	default:
		return nil, p.errf("bind right side must be 'PROVIDER [via CONNECTOR]': %q", src)
	}
	if b.Caller == "" || b.Role == "" || b.Provider == "" {
		return nil, p.errf("bind has empty components: %q", src)
	}
	return b, nil
}
