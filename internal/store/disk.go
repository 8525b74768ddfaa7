package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"socrel/internal/adl"
)

// Disk is the durable JSON-on-disk Store backend.
//
// Layout: one directory per tenant, one per model, one file per version —
// root/<tenant>/<model>/v%06d.json — each file a self-contained record
// (metadata plus the canonical document). Versions are append-only: a file,
// once renamed into place, is never rewritten.
//
// Durability discipline: a publish writes the record to a .tmp file in the
// model directory, fsyncs it, renames it to its final version name, and
// fsyncs the directory. A crash (or kill -9) mid-publish therefore leaves
// either no trace or a stray .tmp file — never a torn version. Open sweeps
// stray .tmp files and quarantines any version file that fails to parse or
// whose content hash does not verify (renamed *.corrupt), so the store
// always reopens clean.
type Disk struct {
	root string
	mu   sync.RWMutex // serializes version allocation across goroutines
}

var _ Store = (*Disk)(nil)

// recordJSON is the on-disk form of one version.
type recordJSON struct {
	Tenant    string          `json:"tenant"`
	Model     string          `json:"model"`
	Version   int             `json:"version"`
	Hash      string          `json:"hash"`
	CreatedAt time.Time       `json:"createdAt"`
	Comment   string          `json:"comment,omitempty"`
	Document  json.RawMessage `json:"document"`
}

// Open opens (creating if needed) a disk store rooted at dir, sweeping
// stray temp files and quarantining torn or tampered version files.
func Open(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	d := &Disk{root: dir}
	if err := d.sweep(); err != nil {
		return nil, err
	}
	return d, nil
}

// Root returns the store's root directory.
func (d *Disk) Root() string { return d.root }

// sweep removes temp files and quarantines unreadable versions in every
// model directory.
func (d *Disk) sweep() error {
	return filepath.WalkDir(d.root, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			return nil
		}
		name := de.Name()
		switch {
		case strings.HasPrefix(name, ".tmp-"):
			// A crash mid-write: the rename never happened, the version was
			// never visible. Remove the debris.
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("store: sweep %s: %w", path, err)
			}
		case strings.HasSuffix(name, ".json"):
			if _, err := readRecordFile(path); err != nil {
				// Torn or tampered: quarantine rather than serve garbage.
				if qerr := os.Rename(path, path+".corrupt"); qerr != nil {
					return fmt.Errorf("store: quarantine %s: %w", path, qerr)
				}
			}
		}
		return nil
	})
}

// readRecordFile parses and hash-verifies one version file.
func readRecordFile(path string) (Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Record{}, fmt.Errorf("%w: %s: %w", ErrCorrupt, path, err)
	}
	var rj recordJSON
	if err := json.Unmarshal(data, &rj); err != nil {
		return Record{}, fmt.Errorf("%w: %s: %w", ErrCorrupt, path, err)
	}
	doc, err := adl.UnmarshalJSON(rj.Document)
	if err != nil {
		return Record{}, fmt.Errorf("%w: %s: %w", ErrCorrupt, path, err)
	}
	// Source is the canonical bytes that were hashed, whatever the
	// indentation the enclosing record file applied.
	source, hash, err := canonicalize(doc)
	if err != nil {
		return Record{}, fmt.Errorf("%w: %s: %w", ErrCorrupt, path, err)
	}
	if hash != rj.Hash {
		return Record{}, fmt.Errorf("%w: %s: content hash %s does not match recorded %s", ErrCorrupt, path, hash, rj.Hash)
	}
	return Record{
		Ref:       Ref{Tenant: rj.Tenant, Model: rj.Model, Version: rj.Version},
		Hash:      rj.Hash,
		CreatedAt: rj.CreatedAt,
		Comment:   rj.Comment,
		Source:    source,
	}, nil
}

func (d *Disk) modelDir(tenant, model string) string {
	return filepath.Join(d.root, tenant, model)
}

func versionFile(version int) string { return fmt.Sprintf("v%06d.json", version) }

// versionFiles lists the model's v%06d.json names with their versions,
// ascending. A model without a directory has none.
func (d *Disk) versionFiles(tenant, model string) ([]versionName, error) {
	entries, err := os.ReadDir(d.modelDir(tenant, model))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []versionName
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") || !strings.HasPrefix(name, "v") {
			continue
		}
		v, err := strconv.Atoi(name[1 : len(name)-len(".json")])
		if err != nil || v < 1 {
			continue
		}
		out = append(out, versionName{v, name})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].version < out[j].version })
	return out, nil
}

type versionName struct {
	version int
	name    string
}

// versionsLocked lists the valid version records of a model, ascending.
// Callers hold at least the read lock.
func (d *Disk) versionsLocked(tenant, model string) ([]Record, error) {
	files, err := d.versionFiles(tenant, model)
	if err != nil {
		return nil, err
	}
	dir := d.modelDir(tenant, model)
	var out []Record
	for _, f := range files {
		rec, err := readRecordFile(filepath.Join(dir, f.name))
		if err != nil {
			// Concurrently written or damaged after open: skip. Open's
			// sweep quarantines; here we only refuse to surface it.
			continue
		}
		out = append(out, rec)
	}
	return out, nil
}

// latestLocked returns the newest valid version record of a model, or
// ok false when it has none. It reads version files newest first and
// stops at the first that verifies, skipping damaged files exactly as
// versionsLocked does, so resolving latest costs one read, not one per
// version. Callers hold at least the read lock.
func (d *Disk) latestLocked(tenant, model string) (rec Record, ok bool, err error) {
	files, err := d.versionFiles(tenant, model)
	if err != nil {
		return Record{}, false, err
	}
	dir := d.modelDir(tenant, model)
	for i := len(files) - 1; i >= 0; i-- {
		if rec, err := readRecordFile(filepath.Join(dir, files[i].name)); err == nil {
			return rec, true, nil
		}
	}
	return Record{}, false, nil
}

// Publish implements Store.
func (d *Disk) Publish(tenant, model string, doc *adl.Document, opts PublishOptions) (Record, error) {
	if err := validNames(tenant, model); err != nil {
		return Record{}, err
	}
	source, hash, err := canonicalize(doc)
	if err != nil {
		return Record{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	prev, ok, err := d.latestLocked(tenant, model)
	if err != nil {
		return Record{}, err
	}
	latest := 0
	if ok {
		latest = prev.Version
	}
	if err := checkCAS(tenant, model, latest, opts.ExpectedLatest); err != nil {
		return Record{}, err
	}
	if ok && prev.Hash == hash {
		return prev, nil // content dedup
	}
	rec := Record{
		Ref:       Ref{Tenant: tenant, Model: model, Version: latest + 1},
		Hash:      hash,
		CreatedAt: stamp(opts),
		Comment:   opts.Comment,
		Source:    source,
	}
	if err := d.writeRecord(rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// writeRecord persists one version atomically: temp file, fsync, rename,
// directory fsync.
func (d *Disk) writeRecord(rec Record) error {
	dir := d.modelDir(rec.Tenant, rec.Model)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	data, err := json.MarshalIndent(recordJSON{
		Tenant:    rec.Tenant,
		Model:     rec.Model,
		Version:   rec.Version,
		Hash:      rec.Hash,
		CreatedAt: rec.CreatedAt,
		Comment:   rec.Comment,
		Document:  json.RawMessage(rec.Source),
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-v*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = tmp.Close(); _ = os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("store: %w", err)
	}
	final := filepath.Join(dir, versionFile(rec.Version))
	if err := os.Rename(tmpName, final); err != nil {
		cleanup()
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename survives power loss.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", dir, err)
	}
	return nil
}

// Get implements Store.
func (d *Disk) Get(ref Ref) (Record, error) {
	if err := validNames(ref.Tenant, ref.Model); err != nil {
		return Record{}, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if ref.Version > 0 {
		path := filepath.Join(d.modelDir(ref.Tenant, ref.Model), versionFile(ref.Version))
		if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
			return Record{}, fmt.Errorf("%w: %s", ErrNotFound, ref)
		}
		return readRecordFile(path)
	}
	rec, ok, err := d.latestLocked(ref.Tenant, ref.Model)
	if err != nil {
		return Record{}, err
	}
	if !ok {
		return Record{}, fmt.Errorf("%w: %s", ErrNotFound, ref)
	}
	return rec, nil
}

// Versions implements Store.
func (d *Disk) Versions(tenant, model string) ([]Record, error) {
	if err := validNames(tenant, model); err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	versions, err := d.versionsLocked(tenant, model)
	if err != nil {
		return nil, err
	}
	if len(versions) == 0 {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, tenant, model)
	}
	return versions, nil
}

// Models implements Store.
func (d *Disk) Models(tenant string) ([]string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	entries, err := os.ReadDir(filepath.Join(d.root, tenant))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []string
	for _, de := range entries {
		if de.IsDir() {
			out = append(out, de.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Tenants implements Store.
func (d *Disk) Tenants() ([]string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []string
	for _, de := range entries {
		if de.IsDir() {
			out = append(out, de.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Delete implements Store.
func (d *Disk) Delete(tenant, model string) error {
	if err := validNames(tenant, model); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	dir := d.modelDir(tenant, model)
	if _, err := os.Stat(dir); errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, tenant, model)
	}
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Close implements Store (no held resources).
func (d *Disk) Close() error { return nil }
