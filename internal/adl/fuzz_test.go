package adl

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzParseDSL drives the ADL parser (and, for accepted documents, the
// assembly builder) with arbitrary source text. Two properties are under
// test: crash-resistance — no input may panic or hang; malformed input must
// fail with an *adl.ParseError (or a lower-layer typed error), never a
// crash — and canonical-form stability: for every accepted document,
// parse → normalize → marshal → parse must be a fixed point of the
// canonical serialization (the content hash the model store dedups on).
func FuzzParseDSL(f *testing.F) {
	f.Add(paperDSL)
	for _, seed := range DSLSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		doc, err := ParseDSL(src)
		if err != nil {
			if doc != nil {
				t.Fatalf("ParseDSL returned both a document and an error: %v", err)
			}
			return
		}
		// Accepted documents must survive assembly construction without
		// panicking; semantic errors are fine.
		for _, name := range doc.AssemblyNames() {
			if asm, err := doc.BuildAssembly(name); err == nil && asm != nil {
				_ = asm.Validate()
			}
		}
		_ = errors.Is(err, ErrSyntax)

		// Canonical round trip: an accepted document must normalize, and
		// the canonical serialization must be a fixed point under reparse.
		norm, err := Normalize(doc)
		if err != nil {
			// Documents the JSON codec cannot represent (none today) would
			// surface here; a typed error is acceptable, a panic is not.
			return
		}
		first, err := MarshalJSON(norm)
		if err != nil {
			t.Fatalf("marshal normalized document: %v", err)
		}
		reparsed, err := UnmarshalJSON(first)
		if err != nil {
			t.Fatalf("canonical JSON does not reparse: %v\n%s", err, first)
		}
		norm2, err := Normalize(reparsed)
		if err != nil {
			t.Fatalf("renormalize: %v", err)
		}
		second, err := MarshalJSON(norm2)
		if err != nil {
			t.Fatalf("remarshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("canonical form is not a fixed point:\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	})
}
