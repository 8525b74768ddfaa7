package adl

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// canonicalSeeds returns MarshalJSON(Normalize(d)) for every document of
// DSLSeeds that parses and for examples/paper.adl: the bytes the model
// store keeps.
func canonicalSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	paper, err := os.ReadFile("../../examples/paper.adl")
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, src := range append([]string{string(paper)}, DSLSeeds...) {
		doc, err := ParseDSL(src)
		if err != nil {
			continue
		}
		norm, err := Normalize(doc)
		if err != nil {
			tb.Fatal(err)
		}
		data, err := MarshalJSON(norm)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	if len(out) < 2 {
		tb.Fatalf("only %d seed documents parse", len(out))
	}
	return out
}

// TestCanonicalRecordsTakeFastPath: the canonical bytes of every seed
// document decode in one pass, to what encoding/json decodes, so a stored
// record never falls back to the reflection decoder. Re-indented bytes,
// as Disk record files hold them, take the fast path too.
func TestCanonicalRecordsTakeFastPath(t *testing.T) {
	for _, data := range canonicalSeeds(t) {
		var indented []byte
		var raw json.RawMessage = data
		indented, err := json.MarshalIndent(struct {
			Document json.RawMessage `json:"document"`
		}{raw}, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		var rec struct{ Document json.RawMessage }
		if err := json.Unmarshal(indented, &rec); err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]byte{data, rec.Document} {
			var fast, slow documentJSON
			if !decodeCanonical(in, &fast) {
				t.Fatalf("fast path declined canonical bytes:\n%s", in)
			}
			if err := json.Unmarshal(in, &slow); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("fast path decoded\n%+v\nencoding/json decoded\n%+v", fast, slow)
			}
		}
	}
}

// outsideCanonical are inputs outside MarshalJSON's output language, one
// per kind the fast path declines.
var outsideCanonical = []string{
	`{"Services":[]}`,                                          // differently cased key
	`{"services":[],"extra":1}`,                                // unknown key
	`{"services":[{"name":null}]}`,                             // null
	`{"services":[],"services":[]}`,                            // duplicate key
	`{"services":[{"name":"a\u0062","kind":"simple"}]}`,        // escape
	"{\"services\":[{\"name\":\"\xff\",\"kind\":\"simple\"}]}", // invalid UTF-8
	"{\"services\":[{\"name\":\"a\tb\"}]}",                     // control byte
	`{"services":[{"name":"a","attrs":{"x":1,"x":2}}]}`,        // duplicate attr
	`{"services":[{"name":"a","attrs":{"x":01}}]}`,             // number grammar
	`{"services":[{"name":"a","attrs":{"x":1e999}}]}`,          // out of range
	`{"services":[{"name":"a","states":[{"k":1.0}]}]}`,         // non-integer k
	`{"services":[{"name":"a","states":[{"k":1e1}]}]}`,         // non-integer k
	`{"services":[]} x`,                                        // trailing data
	`{"services":[],}`,                                         // trailing comma
	`[]`,
}

// TestFastPathDeclines: inputs outside MarshalJSON's output language are
// left to encoding/json, whose reading of them may differ.
func TestFastPathDeclines(t *testing.T) {
	for _, src := range outsideCanonical {
		var in documentJSON
		if decodeCanonical([]byte(src), &in) {
			t.Errorf("fast path accepted %s", src)
		}
	}
}

// FuzzUnmarshalJSON checks the decoder fast path against encoding/json:
// whenever decodeCanonical accepts an input, encoding/json accepts it too
// and decodes the same documentJSON. The seeds are the canonical records
// and one input of each kind the fast path declines.
func FuzzUnmarshalJSON(f *testing.F) {
	for _, data := range canonicalSeeds(f) {
		f.Add(data)
	}
	for _, src := range outsideCanonical {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast documentJSON
		if !decodeCanonical(data, &fast) {
			return
		}
		var slow documentJSON
		if err := json.Unmarshal(data, &slow); err != nil {
			t.Fatalf("fast path accepted what encoding/json rejects (%v):\n%q", err, data)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("fast path decoded\n%+v\nencoding/json decoded\n%+v\ninput %q", fast, slow, data)
		}
	})
}
