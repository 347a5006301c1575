// Package corpus manages collections of sampled deep-web answer pages: the
// raw HTML, the class label each page was (machine-)labeled with, the
// parsed tag tree, and the ground-truth QA-Pagelet locations used to score
// precision and recall. It corresponds to the paper's local cache of 5,500
// hand-labeled pages (Section 4).
package corpus

import (
	"fmt"
	"sync"

	"thor/internal/htmlx"
	"thor/internal/tagtree"
)

// Class is the answer-page class of a sampled page.
type Class int

const (
	// MultiMatch pages present a list of query matches.
	MultiMatch Class = iota
	// SingleMatch pages present detailed information on one match.
	SingleMatch
	// NoMatch pages report that the query matched nothing.
	NoMatch
	// ErrorPage covers exceptions: server errors, malformed-query
	// complaints, and other failure responses.
	ErrorPage
	// NumClasses is the number of page classes.
	NumClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case MultiMatch:
		return "multi-match"
	case SingleMatch:
		return "single-match"
	case NoMatch:
		return "no-match"
	case ErrorPage:
		return "error"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// HasPagelets reports whether pages of this class contain QA-Pagelets.
func (c Class) HasPagelets() bool { return c == MultiMatch || c == SingleMatch }

// TruthMarkerAttr is the attribute name used by the simulated deep web to
// mark ground truth. THOR's algorithms never read attributes; the marker
// exists only so the evaluation harness can score extractions exactly,
// replacing the paper's hand labeling.
const TruthMarkerAttr = "data-qa"

// Truth marker values.
const (
	TruthPagelet = "pagelet"
	TruthObject  = "object"
)

// Page is one sampled answer page. The derived views (tree and
// signatures) are computed lazily under an internal lock, so a shared
// page may be read from concurrent pipeline runs; callers must treat
// the returned tree and maps as immutable.
type Page struct {
	SiteID int
	URL    string
	Query  string
	HTML   string
	Class  Class

	mu      sync.Mutex // guards the lazy caches below
	tree    *tagtree.Node
	tagSig  map[string]int
	termSig map[string]int
}

// Tree returns the parsed tag tree of the page, parsing and caching it on
// first use.
func (p *Page) Tree() *tagtree.Node {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.treeLocked()
}

func (p *Page) treeLocked() *tagtree.Node {
	if p.tree == nil {
		p.tree = htmlx.Parse(p.HTML)
	}
	return p.tree
}

// InvalidateTree discards the cached tree and signatures (used by tests
// that mutate HTML).
func (p *Page) InvalidateTree() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tree, p.tagSig, p.termSig = nil, nil, nil
}

// ReleaseDerived drops the cached tree and signature maps, returning the
// page to its compact HTML-only form. Streaming pipelines call it once a
// page's sparse vector has been built, so peak residency is bounded by
// the vectors rather than by every page's parsed tree and count maps. The
// views rebuild lazily (and equal the released ones) if touched again,
// but note that a rebuilt tree is a fresh allocation: node pointers taken
// before the release will not match nodes of the rebuilt tree.
func (p *Page) ReleaseDerived() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tree, p.tagSig, p.termSig = nil, nil, nil
}

// HasDerived reports whether any derived view (tree or signature map)
// is currently cached — the observable side of the release discipline.
func (p *Page) HasDerived() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tree != nil || p.tagSig != nil || p.termSig != nil
}

// TagSignature returns (caching) the page's tag-frequency signature.
func (p *Page) TagSignature() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tagSig == nil {
		p.tagSig = p.treeLocked().TagCounts()
	}
	return p.tagSig
}

// ContentSignature returns (caching) the page's Porter-stemmed content
// term frequency signature.
func (p *Page) ContentSignature() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.termSig == nil {
		p.termSig = TermSignature(p.treeLocked())
	}
	return p.termSig
}

// TruthPagelets returns the ground-truth QA-Pagelet root nodes of the page,
// located via the truth marker attribute.
func (p *Page) TruthPagelets() []*tagtree.Node {
	return p.Tree().FindAll(func(n *tagtree.Node) bool {
		v, ok := n.Attr(TruthMarkerAttr)
		return ok && v == TruthPagelet
	})
}

// TruthObjects returns the ground-truth QA-Object root nodes of the page.
func (p *Page) TruthObjects() []*tagtree.Node {
	return p.Tree().FindAll(func(n *tagtree.Node) bool {
		v, ok := n.Attr(TruthMarkerAttr)
		return ok && v == TruthObject
	})
}

// Size returns the page size in bytes (the length of the raw HTML), the
// statistic used by the size-based baseline and cluster ranking.
func (p *Page) Size() int { return len(p.HTML) }

// Collection is the set of sampled pages for a single deep-web site.
type Collection struct {
	SiteID int
	Name   string
	Pages  []*Page
}

// Labels returns the class label of every page as ints for the entropy
// measure.
func (c *Collection) Labels() []int {
	labels := make([]int, len(c.Pages))
	for i, p := range c.Pages {
		labels[i] = int(p.Class)
	}
	return labels
}

// ByClass returns the pages with the given class label.
func (c *Collection) ByClass(class Class) []*Page {
	var out []*Page
	for _, p := range c.Pages {
		if p.Class == class {
			out = append(out, p)
		}
	}
	return out
}

// PageletBearing returns the pages whose class carries QA-Pagelets — the
// pre-labeled input for the phase-two-in-isolation experiments (Fig. 8/9).
func (c *Collection) PageletBearing() []*Page {
	var out []*Page
	for _, p := range c.Pages {
		if p.Class.HasPagelets() {
			out = append(out, p)
		}
	}
	return out
}

// ClassDistribution returns how many pages of each class the collection
// holds.
func (c *Collection) ClassDistribution() [NumClasses]int {
	var dist [NumClasses]int
	for _, p := range c.Pages {
		dist[p.Class]++
	}
	return dist
}

// Corpus is a set of per-site collections — the unit the experiments
// iterate over (the paper's 50 collections).
type Corpus struct {
	Collections []*Collection
}

// TotalPages returns the number of pages across all collections.
func (c *Corpus) TotalPages() int {
	n := 0
	for _, col := range c.Collections {
		n += len(col.Pages)
	}
	return n
}

// ClassDistribution pools the per-collection distributions.
func (c *Corpus) ClassDistribution() [NumClasses]int {
	var dist [NumClasses]int
	for _, col := range c.Collections {
		d := col.ClassDistribution()
		for i := range dist {
			dist[i] += d[i]
		}
	}
	return dist
}
