// Package store is the durable, versioned, multi-tenant home for
// ADL-defined assembly models. The paper's premise is that reliability
// prediction is driven by an architectural model of the service assembly;
// at fleet scale those models are not one-shot in-process values but
// thousands of tenant-owned documents, each evolving over time. The store
// gives them:
//
//   - append-only versioning keyed by (tenant, model, version), versions
//     starting at 1 and never rewritten;
//   - content-hash dedup: publishing a document whose canonical form
//     (adl.Normalize) matches the latest version returns that version
//     instead of appending a duplicate;
//   - optimistic concurrency: PublishOptions.ExpectedLatest turns a
//     publish into a compare-and-swap that fails with ErrVersionConflict
//     when another writer got there first;
//   - migration hooks (Migrate) that derive a new version from the latest
//     one under the same CAS discipline;
//   - hot reload into compiled form through ArtifactCache, an LRU of
//     core.CompiledAssembly artifacts keyed by concrete (tenant, model,
//     version, content hash, assembly) — a publish never invalidates a
//     pinned artifact, so predictions stream against the old version
//     until the new one is explicitly selected, and a version number
//     reused after Delete never serves the deleted content;
//   - one parse per stored version: the cache key comes from Get's
//     record metadata, so a cache hit never parses the document (an
//     empty assembly name is resolved on the first miss and remembered),
//     and a publish normalizes once, hashing the canonical bytes it
//     stores.
//
// Two backends implement Store: Mem (tests, ephemeral serving) and Disk
// (JSON-on-disk, one file per version, written atomically so a crash
// mid-publish can never tear an existing version; see disk.go).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"regexp"
	"time"

	"socrel/internal/adl"
)

// Error taxonomy. Every failure a Store method returns matches one of
// these sentinels via errors.Is.
var (
	// ErrNotFound marks lookups of tenants, models, or versions that do
	// not exist.
	ErrNotFound = errors.New("store: not found")
	// ErrVersionConflict marks compare-and-swap publishes that lost the
	// race: the store's latest version differs from ExpectedLatest.
	ErrVersionConflict = errors.New("store: version conflict")
	// ErrCorrupt marks records whose on-disk bytes fail to parse or whose
	// content hash does not match their document (torn or tampered data).
	ErrCorrupt = errors.New("store: corrupt record")
	// ErrBadName marks tenant or model names outside [A-Za-z0-9._-]+
	// (the character set that is safe as a path component and in
	// tenant/model@version references).
	ErrBadName = errors.New("store: bad tenant or model name")
)

// Ref addresses one stored model version. Version 0 means "latest".
type Ref struct {
	Tenant  string
	Model   string
	Version int
}

// String renders the reference as tenant/model@version (tenant/model when
// Version is 0, i.e. latest).
func (r Ref) String() string {
	if r.Version == 0 {
		return r.Tenant + "/" + r.Model
	}
	return fmt.Sprintf("%s/%s@%d", r.Tenant, r.Model, r.Version)
}

// Record is one immutable stored version.
type Record struct {
	Ref
	// Hash is the content address: adl.Hash of the stored document.
	Hash string
	// CreatedAt is the publish time (UTC).
	CreatedAt time.Time
	// Comment is the publisher's free-form annotation.
	Comment string
	// Source is the canonical JSON serialization of the document.
	Source []byte
}

// Document parses the stored canonical source back into a document.
func (r Record) Document() (*adl.Document, error) {
	doc, err := adl.UnmarshalJSON(r.Source)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrCorrupt, r.Ref, err)
	}
	return doc, nil
}

// PublishOptions tunes one Publish call.
type PublishOptions struct {
	// ExpectedLatest, when nonzero, makes the publish a compare-and-swap:
	// >0 requires the current latest version to equal it; -1 requires the
	// model to not exist yet. 0 publishes unconditionally.
	ExpectedLatest int
	// Comment annotates the new version.
	Comment string
	// Now overrides the record timestamp (tests); zero means time.Now.
	Now time.Time
}

// Store is the versioned multi-tenant model store.
type Store interface {
	// Publish appends doc as the next version of (tenant, model) and
	// returns its record. If the canonical content hash equals the latest
	// version's, the latest record is returned unchanged (dedup) — after
	// the CAS check, so a conflicting dedup still fails.
	Publish(tenant, model string, doc *adl.Document, opts PublishOptions) (Record, error)
	// Get returns the addressed version; ref.Version 0 resolves latest.
	Get(ref Ref) (Record, error)
	// Versions returns every version of the model, oldest first.
	Versions(tenant, model string) ([]Record, error)
	// Models returns the model names of a tenant, sorted.
	Models(tenant string) ([]string, error)
	// Tenants returns every tenant name, sorted.
	Tenants() ([]string, error)
	// Delete removes a model and all its versions. Deleting a model that
	// does not exist returns ErrNotFound.
	Delete(tenant, model string) error
	// Close releases backend resources. The store must not be used after.
	Close() error
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// validNames rejects tenant/model names that are empty, contain path
// separators or reference syntax ('@', '/'), or otherwise fall outside the
// safe character set.
func validNames(tenant, model string) error {
	for _, n := range []string{tenant, model} {
		if !nameRe.MatchString(n) || n == "." || n == ".." {
			return fmt.Errorf("%w: %q (want [A-Za-z0-9._-]+)", ErrBadName, n)
		}
	}
	return nil
}

// ParseRef parses "tenant/model" or "tenant/model@version".
func ParseRef(s string) (Ref, error) {
	var ref Ref
	rest := s
	if at := lastIndexByte(rest, '@'); at >= 0 {
		if _, err := fmt.Sscanf(rest[at+1:], "%d", &ref.Version); err != nil || ref.Version < 1 {
			return Ref{}, fmt.Errorf("%w: version in %q (want tenant/model@N, N >= 1)", ErrBadName, s)
		}
		rest = rest[:at]
	}
	slash := lastIndexByte(rest, '/')
	if slash < 0 {
		return Ref{}, fmt.Errorf("%w: %q (want tenant/model[@version])", ErrBadName, s)
	}
	ref.Tenant, ref.Model = rest[:slash], rest[slash+1:]
	if err := validNames(ref.Tenant, ref.Model); err != nil {
		return Ref{}, err
	}
	return ref, nil
}

func lastIndexByte(s string, b byte) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// canonicalize normalizes the document and returns its canonical bytes and
// content hash — the stored representation. The hash is the SHA-256 of
// those bytes, which is adl.Hash(doc) by definition, without a second
// normalize and marshal.
func canonicalize(doc *adl.Document) (source []byte, hash string, err error) {
	norm, err := adl.Normalize(doc)
	if err != nil {
		return nil, "", fmt.Errorf("store: normalize: %w", err)
	}
	source, err = adl.MarshalJSON(norm)
	if err != nil {
		return nil, "", fmt.Errorf("store: marshal: %w", err)
	}
	sum := sha256.Sum256(source)
	return source, hex.EncodeToString(sum[:]), nil
}

// checkCAS applies the ExpectedLatest compare-and-swap rule given the
// current latest version (0 = model absent).
func checkCAS(tenant, model string, latest, expected int) error {
	switch {
	case expected == 0:
		return nil
	case expected == -1 && latest != 0:
		return fmt.Errorf("%w: %s/%s exists at version %d, expected absent", ErrVersionConflict, tenant, model, latest)
	case expected > 0 && latest != expected:
		return fmt.Errorf("%w: %s/%s is at version %d, expected %d", ErrVersionConflict, tenant, model, latest, expected)
	}
	return nil
}

// stamp resolves the record timestamp.
func stamp(opts PublishOptions) time.Time {
	if !opts.Now.IsZero() {
		return opts.Now.UTC()
	}
	return time.Now().UTC()
}
