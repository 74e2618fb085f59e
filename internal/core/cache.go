package core

// The content-addressed sweep-point cache. A sweep point is one fully
// resolved matrix configuration, and the registries already give every
// axis a canonical spelling (ParseProtocol and workloads.ParseSpec
// normalization, memsys defaults applied by planMatrix) — so a point has
// exactly one preimage string, the preimage hashes to exactly one key,
// and distinct canonical configurations cannot share a key by
// construction: every field of the preimage is either a fixed-vocabulary
// token or a strconv.Quote-framed spec, so no two field lists concatenate
// to the same bytes. Entries store the preimage next to the matrix and
// Load verifies it, so even an adversarial hash collision (or a tampered
// file) is detected rather than silently served.
//
// Two consequences fall out of content addressing:
//
//   - Reuse is cross-run and cross-sweep: any sweep (or rerun) whose
//     points resolve to a cached configuration is served from disk, which
//     is both the "second identical sweep simulates nothing" fast path
//     and the resume story — a killed sweep's completed points are
//     already entries, so rerunning the same command restarts where it
//     stopped.
//   - Points that depend on state outside the configuration (trace
//     replays read a file the spec only names) are not cacheable and are
//     always simulated; pointKeyFor reports ErrUncacheable for them.
//
// Entries are written atomically (temp file + rename), so a killed run
// never leaves a truncated entry behind; a corrupt or truncated entry —
// however it got there — fails Load loudly and the caller resimulates.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// cacheModelVersion stamps every point key with the simulation model's
// generation. Bump it whenever simulated results change — i.e. whenever
// the golden snapshots are regenerated — OR whenever the preimage gains a
// field, so entries written before the field existed can never alias a
// point that pins it. v2 added the mesh dimensions; v3 made the vc router
// deliver each (src, dst) channel in order, which changes results at
// VCs >= 4; v4 made the MESI directory track sharers on every tile, which
// changes MESI results past 16 threads; v5 changed only the key's layout
// (the knob lines follow the knob table's order), so a v4 entry is never
// looked up again; v6 reports the flit-hop share of a word that arrives
// while already present, which changes DeNovo traffic figures.
const cacheModelVersion = 6

// ErrUncacheable marks a point whose results depend on state the
// configuration hash cannot see (a trace replay's file contents); such
// points are always simulated fresh.
var ErrUncacheable = errors.New("depends on external state, not cacheable")

// PointKey is the content address of one sweep point: the canonical
// configuration preimage and its sha256, which names the cache entry.
type PointKey struct {
	// Hash is the hex sha256 of Preimage — the entry's file name.
	Hash string
	// Preimage is the canonical configuration encoding the hash commits
	// to; Load verifies it against the stored copy.
	Preimage string
	// point is the planned point's matrix without results: Load serves
	// only an entry whose matrix has this shape and every cell.
	point Matrix
}

// pointKeyFor computes the content address of a planned point. The plan
// carries the post-normalization configuration (canonical protocol and
// workload specs, every knob resolved to the value that runs), so every
// spelling of one configuration reaches the same preimage. Each knob
// writes one line, in table order.
func pointKeyFor(p *matrixPlan) (PointKey, error) {
	for _, s := range p.benchSpecs {
		if s.Name == "replay" {
			return PointKey{}, fmt.Errorf("core: %s: %w", s.Canonical, ErrUncacheable)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "repro point cache v%d\n", cacheModelVersion)
	fmt.Fprintf(&b, "size=%d\n", int(p.opt.Size))
	for _, k := range knobs {
		fmt.Fprintf(&b, "%s=%v\n", k.Name, k.value(&p.opt))
	}
	// Specs are Quote-framed: a spec can contain commas and spaces, and
	// naive joining would let two different lists share one encoding.
	b.WriteString("benchmarks=")
	for _, s := range p.opt.Benchmarks {
		b.WriteString(strconv.Quote(s))
	}
	b.WriteString("\nprotocols=")
	for _, s := range p.opt.Protocols {
		b.WriteString(strconv.Quote(s))
	}
	b.WriteString("\n")
	pre := b.String()
	sum := sha256.Sum256([]byte(pre))
	return PointKey{Hash: hex.EncodeToString(sum[:]), Preimage: pre, point: p.shape()}, nil
}

// PointCache is an on-disk, content-addressed store of completed sweep
// points: one JSON entry per PointKey, named by its hash.
type PointCache struct {
	dir string
}

// OpenPointCache opens (creating if needed) the cache directory.
func OpenPointCache(dir string) (*PointCache, error) {
	if dir == "" {
		return nil, errors.New("core: point cache needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: point cache: %w", err)
	}
	return &PointCache{dir: dir}, nil
}

// Dir returns the cache's directory.
func (c *PointCache) Dir() string { return c.dir }

// cacheEntry is the on-disk shape: the preimage the key commits to, and
// the point's full matrix. Matrices round-trip JSON losslessly (all
// fields exported; float64 uses shortest-round-trip formatting), which is
// what lets a cache hit be bit-identical to fresh simulation.
type cacheEntry struct {
	Preimage string
	Matrix   *Matrix
}

func (c *PointCache) path(key PointKey) string {
	return filepath.Join(c.dir, key.Hash+".json")
}

// Load returns the cached matrix for key, (nil, nil) on a miss, or an
// error when an entry exists but cannot be trusted — unreadable,
// unparsable, truncated, holding a different configuration than the key
// commits to, or a matrix other than the point's: another size, topology,
// router, benchmark list or protocol list, or a cell missing or extra.
// Callers treat that error as loud-and-recoverable: report it, then
// resimulate.
func (c *PointCache) Load(key PointKey) (*Matrix, error) {
	raw, err := os.ReadFile(c.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: point cache entry %s: %w", key.Hash[:12], err)
	}
	var e cacheEntry
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("core: point cache entry %s is corrupt: %v", key.Hash[:12], err)
	}
	if e.Preimage != key.Preimage {
		return nil, fmt.Errorf("core: point cache entry %s holds a different configuration (collision or tampered entry)", key.Hash[:12])
	}
	if e.Matrix == nil || e.Matrix.Results == nil {
		return nil, fmt.Errorf("core: point cache entry %s is truncated", key.Hash[:12])
	}
	if err := e.Matrix.cellsOf(&key.point); err != nil {
		return nil, fmt.Errorf("core: point cache entry %s %v (tampered entry)", key.Hash[:12], err)
	}
	return e.Matrix, nil
}

// cellsOf reports how m differs from a complete matrix of point's shape:
// the same size, topology, router, benchmarks and protocols, and a result
// for exactly each (benchmark, protocol) cell.
func (m *Matrix) cellsOf(point *Matrix) error {
	if m.Size != point.Size || m.Topology != point.Topology || m.Router != point.Router ||
		!slices.Equal(m.Benchmarks, point.Benchmarks) || !slices.Equal(m.Protocols, point.Protocols) {
		return errors.New("holds another matrix")
	}
	if len(m.Results) != len(point.Benchmarks) {
		return fmt.Errorf("has results for %d benchmarks, not %d", len(m.Results), len(point.Benchmarks))
	}
	for _, b := range point.Benchmarks {
		row := m.Results[b]
		if len(row) != len(point.Protocols) {
			return fmt.Errorf("has %d results for %s, not %d", len(row), b, len(point.Protocols))
		}
		for _, p := range point.Protocols {
			if row[p] == nil {
				return fmt.Errorf("has no result for %s/%s", p, b)
			}
		}
	}
	return nil
}

// Store writes the point's matrix under key, atomically: the entry is
// staged in a temp file and renamed into place, so a killed run leaves
// either a complete entry or none.
func (c *PointCache) Store(key PointKey, m *Matrix) error {
	buf, err := json.Marshal(cacheEntry{Preimage: key.Preimage, Matrix: m})
	if err != nil {
		return fmt.Errorf("core: point cache entry %s: %w", key.Hash[:12], err)
	}
	tmp, err := os.CreateTemp(c.dir, "."+key.Hash+".tmp-")
	if err != nil {
		return fmt.Errorf("core: point cache: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("core: point cache entry %s: %w", key.Hash[:12], err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: point cache entry %s: %w", key.Hash[:12], err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: point cache entry %s: %w", key.Hash[:12], err)
	}
	return nil
}
