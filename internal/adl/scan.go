package adl

import (
	"strconv"
	"unicode/utf8"
)

// decodeCanonical is UnmarshalJSON's fast path: a single-pass decoder for
// the JSON that MarshalJSON writes. It fills in exactly what
// json.Unmarshal would, or reports false and leaves in partly filled, in
// which case the caller discards in and runs encoding/json instead.
//
// It declines every input outside MarshalJSON's output language, so that
// the error messages and the lenient readings of encoding/json stay
// encoding/json's. It declines an unknown or differently cased key, a
// duplicate key, null (except as the services of a document without any,
// which MarshalJSON writes), a string escape or control byte, invalid
// UTF-8, a value of the wrong JSON type, a number strconv rejects, a
// non-integer k, and trailing data. It accepts any JSON whitespace,
// because Disk record files re-indent the document.
func decodeCanonical(data []byte, in *documentJSON) bool {
	s := scanner{data: data}
	if !s.document(in) {
		return false
	}
	s.ws()
	return s.pos == len(s.data)
}

// scanner reads one JSON value at a time from data.
type scanner struct {
	data []byte
	pos  int
}

func (s *scanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was next.
func (s *scanner) consume(c byte) bool {
	s.ws()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// null consumes a null literal if one is next.
func (s *scanner) null() bool {
	s.ws()
	if len(s.data)-s.pos >= 4 && string(s.data[s.pos:s.pos+4]) == "null" {
		s.pos += 4
		return true
	}
	return false
}

// members scans an object, calling field with each key; field scans the
// key's value, and declines a key it does not know or has seen before.
func (s *scanner) members(field func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		key, ok := s.rawString()
		if !ok || !s.consume(':') || !field(key) {
			return false
		}
		if !s.consume(',') {
			return s.consume('}')
		}
	}
}

// first marks field bit of seen, reporting false when it was already
// marked (a duplicate key).
func first(seen *uint, bit uint) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// rawString scans a string without escapes or control bytes and returns
// its bytes, which must be valid UTF-8; encoding/json decodes such a
// string to exactly these bytes.
func (s *scanner) rawString() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start, ascii := s.pos, true
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; {
		case c == '"':
			b := s.data[start:s.pos]
			s.pos++
			return b, ascii || utf8.Valid(b)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

func (s *scanner) str(dst *string) bool {
	b, ok := s.rawString()
	if ok {
		*dst = string(b)
	}
	return ok
}

// list scans an array, decoding each element with elem; an empty array
// gives an empty, non-nil slice, as encoding/json does.
func list[T any](s *scanner, dst *[]T, elem func(*T) bool) bool {
	*dst = []T{}
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		var zero T
		*dst = append(*dst, zero)
		if !elem(&(*dst)[len(*dst)-1]) {
			return false
		}
		if !s.consume(',') {
			return s.consume(']')
		}
	}
}

// number scans a literal of JSON's number grammar; with integer set, only
// its integer part is allowed.
func (s *scanner) number(integer bool) ([]byte, bool) {
	s.ws()
	d, i := s.data, s.pos
	digits := func() bool {
		start := i
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		return nil, false
	}
	if !integer {
		if i < len(d) && d[i] == '.' {
			i++
			if !digits() {
				return nil, false
			}
		}
		if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
			i++
			if i < len(d) && (d[i] == '+' || d[i] == '-') {
				i++
			}
			if !digits() {
				return nil, false
			}
		}
	}
	lit := d[s.pos:i]
	s.pos = i
	return lit, true
}

// integer scans a plain integer into an int, as encoding/json's
// strconv.ParseInt does.
func (s *scanner) integer(dst *int) bool {
	lit, ok := s.number(true)
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	*dst = int(v)
	return err == nil
}

// attrs scans an object of numbers; an empty object gives an empty,
// non-nil map, as encoding/json does.
func (s *scanner) attrs(dst *map[string]float64) bool {
	out := map[string]float64{}
	*dst = out
	return s.members(func(key []byte) bool {
		if _, dup := out[string(key)]; dup {
			return false
		}
		lit, ok := s.number(false)
		if !ok {
			return false
		}
		v, err := strconv.ParseFloat(string(lit), 64)
		out[string(key)] = v
		return err == nil
	})
}

func (s *scanner) document(in *documentJSON) bool {
	var seen uint
	return s.members(func(key []byte) bool {
		switch string(key) {
		case "services":
			if s.null() { // MarshalJSON's form of a document without services
				return first(&seen, 1)
			}
			return first(&seen, 1) && list(s, &in.Services, s.service)
		case "assemblies":
			return first(&seen, 2) && list(s, &in.Assemblies, s.assembly)
		}
		return false
	})
}

func (s *scanner) service(sj *serviceJSON) bool {
	var seen uint
	return s.members(func(key []byte) bool {
		switch string(key) {
		case "name":
			return first(&seen, 1) && s.str(&sj.Name)
		case "kind":
			return first(&seen, 2) && s.str(&sj.Kind)
		case "params":
			return first(&seen, 4) && list(s, &sj.Params, s.str)
		case "attrs":
			return first(&seen, 8) && s.attrs(&sj.Attrs)
		case "pfail":
			return first(&seen, 16) && s.str(&sj.Pfail)
		case "states":
			return first(&seen, 32) && list(s, &sj.States, s.state)
		case "transitions":
			return first(&seen, 64) && list(s, &sj.Transitions, s.transition)
		}
		return false
	})
}

func (s *scanner) state(st *stateJSON) bool {
	var seen uint
	return s.members(func(key []byte) bool {
		switch string(key) {
		case "name":
			return first(&seen, 1) && s.str(&st.Name)
		case "completion":
			return first(&seen, 2) && s.str(&st.Completion)
		case "k":
			return first(&seen, 4) && s.integer(&st.K)
		case "dependency":
			return first(&seen, 8) && s.str(&st.Dependency)
		case "requests":
			return first(&seen, 16) && list(s, &st.Requests, s.request)
		}
		return false
	})
}

func (s *scanner) request(r *requestJSON) bool {
	var seen uint
	return s.members(func(key []byte) bool {
		switch string(key) {
		case "role":
			return first(&seen, 1) && s.str(&r.Role)
		case "params":
			return first(&seen, 2) && list(s, &r.Params, s.str)
		case "connParams":
			return first(&seen, 4) && list(s, &r.ConnParams, s.str)
		case "internal":
			return first(&seen, 8) && s.str(&r.Internal)
		}
		return false
	})
}

func (s *scanner) transition(t *transitionJSON) bool {
	var seen uint
	return s.members(func(key []byte) bool {
		switch string(key) {
		case "from":
			return first(&seen, 1) && s.str(&t.From)
		case "to":
			return first(&seen, 2) && s.str(&t.To)
		case "prob":
			return first(&seen, 4) && s.str(&t.Prob)
		}
		return false
	})
}

func (s *scanner) assembly(a *assemblyJSON) bool {
	var seen uint
	return s.members(func(key []byte) bool {
		switch string(key) {
		case "name":
			return first(&seen, 1) && s.str(&a.Name)
		case "bindings":
			return first(&seen, 2) && list(s, &a.Bindings, s.binding)
		}
		return false
	})
}

func (s *scanner) binding(b *bindingJSON) bool {
	var seen uint
	return s.members(func(key []byte) bool {
		switch string(key) {
		case "caller":
			return first(&seen, 1) && s.str(&b.Caller)
		case "role":
			return first(&seen, 2) && s.str(&b.Role)
		case "provider":
			return first(&seen, 4) && s.str(&b.Provider)
		case "connector":
			return first(&seen, 8) && s.str(&b.Connector)
		}
		return false
	})
}
