package adl

import (
	"bytes"
	"errors"
	"io"
	"os"

	"socrel/internal/assembly"
)

// Parse reads a document in either syntax: JSON when the first non-space
// byte is '{', the DSL otherwise.
func Parse(data []byte) (*Document, error) {
	if bytes.HasPrefix(bytes.TrimSpace(data), []byte("{")) {
		return UnmarshalJSON(data)
	}
	return ParseDSL(string(data))
}

// Load reads and parses the document at path; "-" reads standard input.
func Load(path string) (*Document, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// LoadAssembly builds the assembly a command line names with its -file,
// -assembly and -paper flags: the paper example when paper is set, else
// assembly name (empty: the sole one) of the document at file.
func LoadAssembly(file, name, paper string) (*assembly.Assembly, error) {
	switch {
	case paper != "":
		return assembly.Paper(paper)
	case file != "":
		doc, err := Load(file)
		if err != nil {
			return nil, err
		}
		return doc.BuildAssembly(name)
	default:
		return nil, errors.New("either -file or -paper is required")
	}
}
