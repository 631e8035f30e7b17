package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"

	"arbods"
)

// graphEntry is one built graph resident in the cache: the CSR itself plus
// the metadata a solve needs (the arboricity bound the construction
// certifies, or the degeneracy fallback computed once at build time).
// Every field but hits is immutable once the entry is built, so entries
// are shared across requests without copying.
type graphEntry struct {
	id    string // "sha256:<hex>" over the canonical encoding
	name  string // corpus or spec reference that produced it ("" for uploads)
	g     *arbods.Graph
	bound int // generator-certified α (0 = none)
	degen int // degeneracy, the certified α fallback (computed at insert)
	hits  atomic.Int64
}

// newGraphCache returns the content-addressed store of built graph.Graph
// CSRs. Keys are sha256 hashes of the canonical text encoding, so the same
// graph uploaded twice — or reached once by upload and once by generator
// spec — builds exactly once; repeat solve requests skip the build
// entirely (the ~255ms that dominates a cold million-node request).
// "corpus:…" and "spec:…" references alias the hash they built, so by-name
// requests hit without re-reading or re-generating. Eviction is LRU at a
// fixed entry capacity.
func newGraphCache(capacity int) *lru[string, *graphEntry] {
	if capacity <= 0 {
		capacity = 64
	}
	return newLRU[string, *graphEntry](capacity)
}

// hashGraph returns the content address of g: sha256 over the canonical
// text encoding (sorted neighbor lists, edges emitted once with u < v),
// so isomorphic *labelled* graphs — however they arrived — share an id.
func hashGraph(g *arbods.Graph) (string, error) {
	var buf bytes.Buffer
	if err := arbods.EncodeGraph(&buf, g); err != nil {
		return "", fmt.Errorf("canonicalize: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// install is the one way a built, uploaded or peer-fetched graph becomes
// resident: it stores e (first writer wins — a graph already resident
// under e.id keeps its entry), counts the work that produced e in count
// (nil for uploads), and snapshots a newly resident graph to disk, so it
// is durable as well as resident.
func (s *Server) install(e *graphEntry, count *atomic.Int64) (*graphEntry, bool) {
	if count != nil {
		count.Add(1)
	}
	resident, existed := s.cache.add(e.id, e)
	if !existed && s.persist != nil {
		s.persist.save(resident)
	}
	return resident, existed
}

// corpusName restricts by-name corpus references to plain file names —
// no separators, no traversal, nothing hidden.
var corpusName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// buildEntry constructs a cache entry for a built graph under the given
// name key, computing the degeneracy fallback once so solves never pay
// for it.
func buildEntry(g *arbods.Graph, name string, bound int) (*graphEntry, error) {
	id, err := hashGraph(g)
	if err != nil {
		return nil, err
	}
	_, degen := arbods.Degeneracy(g)
	return &graphEntry{id: id, name: name, g: g, bound: bound, degen: degen}, nil
}

// loadCorpus reads and builds a graph from the corpus directory.
func loadCorpus(dir, name string) (*arbods.Graph, error) {
	if dir == "" {
		return nil, fmt.Errorf("no corpus directory configured")
	}
	if !corpusName.MatchString(name) || strings.Contains(name, "..") {
		return nil, fmt.Errorf("invalid corpus name %q", name)
	}
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return arbods.DecodeGraph(f)
}
