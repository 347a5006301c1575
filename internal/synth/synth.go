// Package synth generates the synthetic scalability data sets of
// Section 4: starting from the class distribution of a real (here:
// simulated) probed corpus, it creates arbitrarily large collections of
// synthetic pages whose tag and content signatures follow the empirical
// per-class distributions. "To create a new synthetic page of a particular
// class, we randomly generated a tag and content signature based on the
// overall distribution of the tag and content signatures for the entire
// class." The paper scales this to 5,500,000 pages.
//
// Synthetic pages are signature vectors, not HTML: the scalability
// experiments (Figures 6 and 7) exercise only the clustering phase, which
// consumes signatures.
package synth

import (
	"math/rand"
	"sort"

	"thor/internal/corpus"
)

// ClassModel is the empirical signature distribution of one page class:
// for bootstrap sampling, it keeps every observed signature of the class.
type ClassModel struct {
	Class corpus.Class
	// TagSignatures and ContentSignatures are the observed per-page
	// signatures of this class.
	TagSignatures     []map[string]int
	ContentSignatures []map[string]int
	// Sizes are the observed page sizes in bytes.
	Sizes []int
	// Weight is the class's share of the source corpus.
	Weight float64
}

// Model is the full generative model: one ClassModel per class, with
// weights matching the source distribution.
type Model struct {
	Classes []*ClassModel
}

// BuildModel fits a Model to a collection of labeled pages.
func BuildModel(pages []*corpus.Page) *Model {
	byClass := make(map[corpus.Class]*ClassModel)
	for _, p := range pages {
		cm := byClass[p.Class]
		if cm == nil {
			cm = &ClassModel{Class: p.Class}
			byClass[p.Class] = cm
		}
		cm.TagSignatures = append(cm.TagSignatures, p.Tree().TagCounts())
		cm.ContentSignatures = append(cm.ContentSignatures, corpus.TermSignature(p.Tree()))
		cm.Sizes = append(cm.Sizes, p.Size())
	}
	m := &Model{}
	total := float64(len(pages))
	for c := corpus.Class(0); c < corpus.NumClasses; c++ {
		if cm, ok := byClass[c]; ok {
			cm.Weight = float64(len(cm.TagSignatures)) / total
			m.Classes = append(m.Classes, cm)
		}
	}
	return m
}

// Page is one synthetic page: class label plus sampled signatures.
type Page struct {
	Class   corpus.Class
	Tags    map[string]int
	Content map[string]int
	Size    int
}

// Sample draws n synthetic pages. Each page's class follows the model's
// class weights; its tag signature, content signature, and size are
// sampled by perturbed bootstrap from the class's observed signatures:
// a base signature is drawn uniformly and each count is jittered ±25%,
// reproducing within-class variation without copying pages verbatim.
//
// Sample is a thin collector over Sampler: page i is generated from a
// seed derived from (seed, i), so the eager slice and the streaming
// consumers see bit-identical pages.
func (m *Model) Sample(n int, seed int64) []Page {
	out := make([]Page, 0, n)
	s := m.Sampler(n, seed)
	for p, ok := s.Next(); ok; p, ok = s.Next() {
		out = append(out, p)
	}
	return out
}

func (m *Model) pickClass(rng *rand.Rand) *ClassModel {
	r := rng.Float64()
	var acc float64
	for _, cm := range m.Classes {
		acc += cm.Weight
		if r <= acc {
			return cm
		}
	}
	return m.Classes[len(m.Classes)-1]
}

// jitter copies a signature, randomly perturbing each count by up to ±25%
// (at least ±1 when it moves) and occasionally dropping a term, so
// synthetic pages of one class are similar but not identical. Terms are
// visited in sorted order so the random stream — and therefore the whole
// synthetic corpus — is deterministic in the seed.
func jitter(sig map[string]int, rng *rand.Rand) map[string]int {
	terms := make([]string, 0, len(sig))
	for term := range sig {
		terms = append(terms, term)
	}
	sort.Strings(terms)
	out := make(map[string]int, len(sig))
	for _, term := range terms {
		count := sig[term]
		if count > 1 && rng.Intn(20) == 0 {
			continue // rare term drop
		}
		delta := 0
		if span := count / 4; span > 0 {
			delta = rng.Intn(2*span+1) - span
		} else if rng.Intn(3) == 0 {
			delta = rng.Intn(3) - 1
		}
		c := count + delta
		if c < 1 {
			c = 1
		}
		out[term] = c
	}
	return out
}

func jitterInt(v int, rng *rand.Rand) int {
	span := v / 4
	if span == 0 {
		return v
	}
	return v + rng.Intn(2*span+1) - span
}

// Labels extracts the class labels of synthetic pages as ints.
func Labels(pages []Page) []int {
	out := make([]int, len(pages))
	for i, p := range pages {
		out[i] = int(p.Class)
	}
	return out
}

// TagSignatures extracts the tag signatures of synthetic pages.
func TagSignatures(pages []Page) []map[string]int {
	out := make([]map[string]int, len(pages))
	for i, p := range pages {
		out[i] = p.Tags
	}
	return out
}

// ContentSignatures extracts the content signatures of synthetic pages.
func ContentSignatures(pages []Page) []map[string]int {
	out := make([]map[string]int, len(pages))
	for i, p := range pages {
		out[i] = p.Content
	}
	return out
}

// Sizes extracts the page sizes of synthetic pages.
func Sizes(pages []Page) []int {
	out := make([]int, len(pages))
	for i, p := range pages {
		out[i] = p.Size
	}
	return out
}

// NumClasses returns how many distinct classes the model carries.
func (m *Model) NumClasses() int { return len(m.Classes) }
