package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"thor/internal/strdist"
)

// fuzzPaths are the raw paths fuzzed candidates draw from: shared
// prefixes, indexed steps, and headings, whose q=1 identifiers can be
// the digit of a step index.
var fuzzPaths = []string{
	"html/body/div",
	"html/body/div[2]",
	"html/body/div/ul/li",
	"html/body/div/ul/li[3]",
	"html/body/table/tr/td",
	"html/body/div/h1",
	"html/body/h2/span",
	"html/body/aside/abbr",
}

// fuzzTags are the tags of fuzzPaths.
var fuzzTags = func() []string {
	var all []*Candidate
	for _, p := range fuzzPaths {
		all = append(all, &Candidate{Path: p})
	}
	return pathTags([][]*Candidate{all})
}()

// fuzzCluster decodes data into a matcher input: the number of pages,
// the shape weights (each 0, 0.25, 0.5 or 1, so terms are often off),
// MaxMatchDistance, q, and each page's candidates. A candidate is one
// byte: its path (3 bits), then 5 bits of which 2 pick its fanout, 2
// its node count and 1 its depth, so the same shape comes back on many
// pages and shapes that share a path differ in one field at a time.
func fuzzCluster(data []byte) (perPage [][]*Candidate, cfg Config, q int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	pages := 2 + int(next()%5)
	cfg = DefaultConfig()
	wb := next()
	for i := range cfg.ShapeWeights {
		cfg.ShapeWeights[i] = []float64{0, 0.25, 0.5, 1}[wb>>(2*i)&3]
	}
	cfg.MaxMatchDistance = []float64{0.1, 0.3, 1, math.Inf(1)}[next()%4]
	q = 1 + int(next()%2)
	perPage = make([][]*Candidate, pages)
	for p := range perPage {
		for n := int(next() % 9); n > 0; n-- {
			b := next()
			perPage[p] = append(perPage[p], &Candidate{
				PageIdx: p,
				Path:    fuzzPaths[b&7],
				Fanout:  int(b >> 3 & 3),
				Nodes:   1 + int(b>>5&3),
				Depth:   2 + int(b>>7),
			})
		}
	}
	return perPage, cfg, q
}

// FuzzFindCommonSubtreeSets checks the matcher, which keys pairs by
// distinct candidate shape and reuses the matching of a repeated shape
// sequence, against the per-pair reference on fuzzed
// clusters: the same sets with the same members, by pointer and in
// order, and simplifiers that answer alike for every tag afterwards.
func FuzzFindCommonSubtreeSets(f *testing.F) {
	f.Add([]byte{3, 0x55, 2, 0, 4, 0x01, 0x09, 0x11, 0x01, 2, 0x01, 0x09, 3, 0x01, 0x02, 0x0a})
	f.Add([]byte{2, 0x04, 1, 1, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{4, 0x00, 3, 0, 3, 0x85, 0x85, 0x85, 3, 0x85, 0x85, 0x05})
	// Pages that repeat one shape sequence, whose matching is reused.
	f.Add([]byte{2, 0x55, 2, 0, 3, 0x01, 0x09, 0x11, 3, 0x01, 0x09, 0x11, 3, 0x01, 0x09, 0x11, 3, 0x01, 0x09, 0x11})
	// Pages holding the same shapes in other orders, which must not be.
	f.Add([]byte{2, 0x55, 2, 0, 3, 0x01, 0x09, 0x11, 3, 0x11, 0x01, 0x09, 3, 0x09, 0x11, 0x01, 3, 0x01, 0x09, 0x11})
	// Two sequences that alternate, one the other reversed, at q=2 with
	// a tight MaxMatchDistance.
	f.Add([]byte{3, 0x5a, 1, 1, 2, 0x02, 0x0a, 2, 0x0a, 0x02, 2, 0x02, 0x0a, 2, 0x0a, 0x02, 2, 0x02, 0x0a})
	f.Fuzz(func(t *testing.T, data []byte) {
		perPage, cfg, q := fuzzCluster(data)
		cfg.PathSimplifyQ = q
		gotSimp, wantSimp := strdist.NewSimplifier(q), strdist.NewSimplifier(q)
		got := FindCommonSubtreeSets(perPage, cfg, rand.New(rand.NewSource(1)), gotSimp)
		want := findCommonSubtreeSetsRef(perPage, cfg, rand.New(rand.NewSource(1)), wantSimp)
		assertSameSets(t, fmt.Sprintf("weights %v max %v q %d", cfg.ShapeWeights, cfg.MaxMatchDistance, q), got, want)
		for _, tag := range fuzzTags {
			if g, w := gotSimp.ID(tag), wantSimp.ID(tag); g != w {
				t.Fatalf("tag %q simplified to %q, reference %q", tag, g, w)
			}
		}
	})
}
