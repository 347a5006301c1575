package cluster

import (
	"fmt"
	"sync"

	"thor/internal/tagtree"
	"thor/internal/vector"
)

// Input is the multi-representation view of the items handed to a
// Clusterer. Each representation is a lazily evaluated accessor — nil when
// the caller cannot provide it — so a clusterer only pays for the view it
// actually consumes: the size baseline never parses a tag tree, and the
// tree-edit clusterer never builds TFIDF vectors. Accessors built with
// Memo are evaluated at most once even when several stages share them.
type Input struct {
	// N is the number of items to cluster.
	N int
	// Interned returns the items as integer-ID vectors sharing one Dict
	// (the vector-space clusterers).
	Interned func() vector.Interned
	// Sizes returns the items' sizes in bytes (the size baseline).
	Sizes func() []int
	// URLs returns the items' URLs (the URL-edit-distance baseline).
	URLs func() []string
	// Trees returns the items' tag trees (the tree-edit clusterer).
	Trees func() []*tagtree.Node
}

// Config parameterizes a Clusterer run. Clusterers without a notion of
// restarts or workers ignore those fields; every clusterer derives all of
// its randomness from Seed, so a run is reproducible and independent of
// the worker count.
type Config struct {
	K        int
	Restarts int
	Seed     int64
	Workers  int
}

// Result is a clustering together with the artifacts a clusterer can
// share: for the vector-space clusterers, the input's dictionary and the
// centroids in its ID space (in cluster-index order), and the internal
// similarity of the chosen clustering (0 when the algorithm has no such
// guidance metric).
type Result struct {
	Clustering Clustering
	Similarity float64
	Dict       *vector.Dict
	Centroids  []vector.IDVec
}

// Clusterer is one page-clustering algorithm, selectable by name through
// the registry. Cluster partitions the input into cfg.K groups; it returns
// an error when the input lacks the representation the algorithm needs.
type Clusterer interface {
	// Name is the registry key (lower-case, stable across releases: it is
	// written into persisted models and CLI flags).
	Name() string
	Cluster(in Input, cfg Config) (Result, error)
}

// Memo wraps f so it is evaluated at most once; later calls return the
// cached value. It is safe for concurrent use, letting one expensive
// representation (e.g. TFIDF page vectors) be shared between the
// clustering call and downstream centroid computation.
func Memo[T any](f func() T) func() T {
	var once sync.Once
	var v T
	return func() T {
		once.Do(func() { v = f() })
		return v
	}
}

// needErr reports a missing input representation uniformly.
func needErr(name, what string) error {
	return fmt.Errorf("cluster: %s requires %s input", name, what)
}
