package cluster

import (
	"reflect"
	"strings"
	"testing"

	"thor/internal/tagtree"
	"thor/internal/vector"
)

// builtinNames are the clusterers required to be reachable through the
// registry by name: the original seven plus the density-based dbscan of
// the lifecycle work.
var builtinNames = []string{
	"bisecting", "bysize", "bytreeedit", "byurl", "dbscan", "kmeans", "kmedoids", "random",
}

func TestRegistryHasAllBuiltins(t *testing.T) {
	if got := Names(); !reflect.DeepEqual(got, builtinNames) {
		t.Fatalf("Names() = %v, want %v", got, builtinNames)
	}
	for _, name := range builtinNames {
		c, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		if c.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, c.Name())
		}
	}
}

func TestMustLookupUnknownNamesKnown(t *testing.T) {
	_, err := MustLookup("nope")
	if err == nil {
		t.Fatal("MustLookup(nope) succeeded")
	}
	if !strings.Contains(err.Error(), "kmeans") {
		t.Errorf("error %q does not name the known clusterers", err)
	}
}

// testInput builds a full four-representation input for n items in two
// well-separated groups, so any sensible clusterer with k=2 separates
// them.
func testInput(n int) Input {
	docs := make([]map[string]int, n)
	sizes := make([]int, n)
	urls := make([]string, n)
	trees := make([]*tagtree.Node, n)
	for i := range docs {
		if i%2 == 0 {
			docs[i] = map[string]int{"table": 8, "tr": 20, "td": 40}
			sizes[i] = 9000 + i
			urls[i] = "http://site/search?q=aaaaaaaa"
			table := tagtree.NewTag("table")
			tr := tagtree.NewTag("tr")
			table.AppendChild(tr)
			tr.AppendChild(tagtree.NewTag("td"))
			trees[i] = table
		} else {
			docs[i] = map[string]int{"p": 2, "h1": 1}
			sizes[i] = 300 + i
			urls[i] = "http://site/error"
			trees[i] = tagtree.NewTag("p")
		}
	}
	return Input{
		N:        n,
		Interned: Memo(func() vector.Interned { return vector.TFIDFInterned(docs) }),
		Sizes:    Memo(func() []int { return sizes }),
		URLs:     Memo(func() []string { return urls }),
		Trees:    Memo(func() []*tagtree.Node { return trees }),
	}
}

// TestEveryBuiltinClustersThroughInterface drives each registered
// clusterer through the interface and checks the structural contract: a
// complete assignment of all n items across at most k clusters.
func TestEveryBuiltinClustersThroughInterface(t *testing.T) {
	const n, k = 12, 2
	for _, name := range Names() {
		c, _ := Lookup(name)
		res, err := c.Cluster(testInput(n), Config{K: k, Restarts: 3, Seed: 7, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cl := res.Clustering
		if len(cl.Assign) != n {
			t.Fatalf("%s: %d assignments for %d items", name, len(cl.Assign), n)
		}
		for i, a := range cl.Assign {
			if a < 0 || a >= cl.K {
				t.Fatalf("%s: item %d assigned to cluster %d of %d", name, i, a, cl.K)
			}
		}
		total := 0
		for _, members := range cl.Clusters {
			total += len(members)
		}
		if total != n {
			t.Errorf("%s: cluster index lists cover %d of %d items", name, total, n)
		}
	}
}

// TestAdaptersMatchDirectCalls pins the bit-identical contract between the
// registry path and the direct function calls the pre-registry code used.
func TestAdaptersMatchDirectCalls(t *testing.T) {
	const n, k = 12, 3
	in := testInput(n)
	cfg := Config{K: k, Restarts: 5, Seed: 42, Workers: 1}

	kc, _ := Lookup("kmeans")
	got, err := kc.Cluster(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	iv := in.Interned()
	direct := KMeansInterned(iv.Vecs, iv.Dict.Len(), KMeansConfig{K: k, Restarts: 5, Seed: 42, Workers: 1})
	if !reflect.DeepEqual(got.Clustering, direct.Clustering) {
		t.Error("kmeans: registry clustering differs from direct call")
	}
	if got.Similarity != direct.Similarity { //thorlint:allow no-float-eq identical code paths must give the identical float
		t.Error("kmeans: registry similarity differs from direct call")
	}

	sc, _ := Lookup("bysize")
	gotS, err := sc.Cluster(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotS.Clustering, BySize(in.Sizes(), k, 42)) {
		t.Error("bysize: registry clustering differs from direct call")
	}

	uc, _ := Lookup("byurl")
	gotU, err := uc.Cluster(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotU.Clustering, ByURL(in.URLs(), k, 42)) {
		t.Error("byurl: registry clustering differs from direct call")
	}

	rc, _ := Lookup("random")
	gotR, err := rc.Cluster(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotR.Clustering, Random(n, k, 42)) {
		t.Error("random: registry clustering differs from direct call")
	}
}

// TestClusterersReportMissingInput checks that a representation-specific
// clusterer rejects, rather than panics on, input lacking its view.
func TestClusterersReportMissingInput(t *testing.T) {
	empty := Input{N: 4}
	for _, name := range []string{"kmeans", "bisecting", "kmedoids", "bysize", "byurl", "bytreeedit", "dbscan"} {
		c, _ := Lookup(name)
		if _, err := c.Cluster(empty, Config{K: 2, Seed: 1}); err == nil {
			t.Errorf("%s: no error on input without its representation", name)
		}
	}
}

func TestMemoEvaluatesOnce(t *testing.T) {
	calls := 0
	f := Memo(func() int { calls++; return 41 + calls })
	if f() != 42 || f() != 42 || calls != 1 {
		t.Errorf("Memo: got %d after %d calls", f(), calls)
	}
}
