// Package sourcecat categorizes deep-web sources by the content of their
// answers — requirement (1) of the deep-web search engine the paper
// envisions (Section 1): "an efficient means of discovering and
// categorizing deep web data sources" (cf. Ipeirotis & Gravano [16], who
// build searchable hierarchies by database sampling).
//
// The categorizer reuses THOR's own machinery: each source is described by
// the TFIDF-weighted stemmed vocabulary of its *extracted QA-Pagelets* —
// not whole pages, so navigation chrome and boilerplate do not pollute the
// description — and sources are clustered with K-Means under cosine
// similarity. Sources backed by similar databases (bookstores, music
// catalogs, job boards) land in the same category.
package sourcecat

import (
	"sort"

	"thor/internal/cluster"
	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/stem"
	"thor/internal/tagtree"
	"thor/internal/vector"
)

// Profile is one source's content description.
type Profile struct {
	SiteID   int
	SiteName string
	// Terms is the stemmed term-frequency vocabulary of the source's
	// extracted answer content.
	Terms map[string]int
	// Pagelets is how many QA-Pagelets contributed.
	Pagelets int
}

// ProfileFromPagelets builds a source profile from THOR's extraction
// output.
func ProfileFromPagelets(siteID int, siteName string, pagelets []*core.Pagelet) *Profile {
	p := &Profile{SiteID: siteID, SiteName: siteName, Terms: make(map[string]int)}
	for _, pl := range pagelets {
		mergeCounts(p.Terms, pl.Node.TermCounts(stem.Stem))
		p.Pagelets++
	}
	return p
}

// ProfileFromPages builds a profile from raw answer pages when extraction
// output is unavailable; whole-page content is noisier (chrome included)
// but still usable.
func ProfileFromPages(siteID int, siteName string, pages []*corpus.Page) *Profile {
	p := &Profile{SiteID: siteID, SiteName: siteName, Terms: make(map[string]int)}
	for _, page := range pages {
		if !page.Class.HasPagelets() {
			continue
		}
		mergeCounts(p.Terms, page.Tree().TermCounts(stem.Stem))
		p.Pagelets++
	}
	return p
}

func mergeCounts(dst, src map[string]int) {
	for t, c := range src {
		dst[t] += c
	}
}

// TopTerms returns the profile's n most frequent terms (alphabetical among
// ties), a human-readable gloss of what the source is about.
func (p *Profile) TopTerms(n int) []string {
	terms := make([]string, 0, len(p.Terms))
	for t := range p.Terms {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool {
		if p.Terms[terms[i]] != p.Terms[terms[j]] {
			return p.Terms[terms[i]] > p.Terms[terms[j]]
		}
		return terms[i] < terms[j]
	})
	if len(terms) > n {
		terms = terms[:n]
	}
	return terms
}

// Category is one group of content-similar sources.
type Category struct {
	// Members are the profiles assigned to the category.
	Members []*Profile
	// Label holds the category's most characteristic terms: frequent in
	// the category's centroid.
	Label []string
}

// Config tunes the categorizer.
type Config struct {
	// K is the number of categories (required).
	K int
	// Restarts for the underlying K-Means (default 10).
	Restarts int
	// LabelTerms per category (default 5).
	LabelTerms int
	Seed       int64
}

// Categorize clusters the profiles into cfg.K categories.
func Categorize(profiles []*Profile, cfg Config) []*Category {
	if len(profiles) == 0 {
		return nil
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 10
	}
	if cfg.LabelTerms <= 0 {
		cfg.LabelTerms = 5
	}
	docs := make([]map[string]int, len(profiles))
	for i, p := range profiles {
		docs[i] = p.Terms
	}
	iv := vector.TFIDFInterned(docs)
	res := cluster.KMeansInterned(iv.Vecs, iv.Dict.Len(), cluster.KMeansConfig{
		K: cfg.K, Restarts: cfg.Restarts, Seed: cfg.Seed,
	})
	var cats []*Category
	for c, members := range res.Clustering.Clusters {
		if len(members) == 0 {
			continue
		}
		cat := &Category{}
		for _, i := range members {
			cat.Members = append(cat.Members, profiles[i])
		}
		cat.Label = centroidLabel(iv.Dict.ToSparse(res.Centroids[c]), cfg.LabelTerms)
		cats = append(cats, cat)
	}
	// Deterministic output order: largest first, then by first member.
	sort.Slice(cats, func(i, j int) bool {
		if len(cats[i].Members) != len(cats[j].Members) {
			return len(cats[i].Members) > len(cats[j].Members)
		}
		return cats[i].Members[0].SiteID < cats[j].Members[0].SiteID
	})
	return cats
}

// centroidLabel picks the centroid's heaviest terms, skipping numbers.
func centroidLabel(centroid vector.Sparse, n int) []string {
	type tw struct {
		term   string
		weight float64
	}
	var all []tw
	for i, t := range centroid.Terms {
		if !alphabetic(t) {
			continue
		}
		all = append(all, tw{t, centroid.Weights[i]})
	}
	sort.Slice(all, func(i, j int) bool {
		//thorlint:allow no-float-eq deterministic sort tie-break on equal weights
		if all[i].weight != all[j].weight {
			return all[i].weight > all[j].weight
		}
		return all[i].term < all[j].term
	})
	out := make([]string, 0, n)
	for _, t := range all {
		out = append(out, t.term)
		if len(out) == n {
			break
		}
	}
	return out
}

func alphabetic(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 'a' || s[i] > 'z' {
			return false
		}
	}
	return len(s) > 1
}

// SchemaTermHint extracts field-name-like terms from a source's pagelets:
// terms appearing in nearly every QA-Object of a source (like "price" or
// "author" labels) describe its schema rather than its data. They make
// good category evidence and are surfaced for diagnostics.
func SchemaTermHint(pagelets []*core.Pagelet, minShare float64) []string {
	if len(pagelets) == 0 {
		return nil
	}
	df := make(map[string]int)
	total := 0
	for _, pl := range pagelets {
		for _, obj := range pl.Objects {
			total++
			seen := make(map[string]bool)
			obj.Walk(func(n *tagtree.Node) bool {
				if n.Type == tagtree.ContentNode {
					for _, tok := range tagtree.Tokenize(n.Content) {
						s := stem.Stem(tok)
						if !seen[s] {
							seen[s] = true
							df[s]++
						}
					}
				}
				return true
			})
		}
	}
	if total == 0 {
		return nil
	}
	var out []string
	for t, c := range df {
		if alphabetic(t) && float64(c) >= minShare*float64(total) {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}
