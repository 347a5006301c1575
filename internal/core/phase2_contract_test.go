package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode"

	"thor/internal/corpus"
	"thor/internal/htmlx"
	"thor/internal/stem"
	"thor/internal/strdist"
	"thor/internal/tagtree"
)

// headingPage renders an answer page whose regions are headed by h1–h6.
// With q=1 the simplifier hands html "h", so every hN falls back to its
// digit — the same character as a positional index — and the path edit
// distances depend on which tags were seen first.
func headingPage(i int) string {
	var b strings.Builder
	b.WriteString(`<html><head><title>Results</title></head><body>`)
	fmt.Fprintf(&b, `<div><h1>Results for q%d</h1><h2>page %d</h2></div>`, i, i)
	b.WriteString(`<div class="res">`)
	for j := 0; j < 2+i%4; j++ {
		fmt.Fprintf(&b, `<div><h3>item q%d-%d</h3><h4>by author%d</h4><p>text%d about q%d</p></div>`, i, j, j, j, i)
	}
	b.WriteString(`</div>`)
	if i%2 == 0 {
		b.WriteString(`<div><h5>Related</h5><h6>more like this</h6></div>`)
	}
	b.WriteString(`<div><p>About us: a fine store.</p></div></body></html>`)
	return b.String()
}

// phase2Clusters returns the page clusters the matcher contract runs on:
// the first 12 pages of the top-ranked cluster phase one finds on each
// of two probed sites (12 keeps the per-pair reference affordable under
// the race detector), a cluster of heading pages, and a two-page cluster
// whose identifiers depend on which path is simplified first.
func phase2Clusters(t *testing.T) [][]*corpus.Page {
	t.Helper()
	var clusters [][]*corpus.Page
	for _, site := range []int{2, 4} {
		col := probeSite(t, site, 11)
		cfg := DefaultConfig()
		cfg.Workers = 1
		pages := Phase1(col.Pages, cfg).Ranked[0].Pages
		clusters = append(clusters, pages[:min(12, len(pages))])
	}
	var headings []*corpus.Page
	for i := 0; i < 9; i++ {
		headings = append(headings, &corpus.Page{HTML: headingPage(i), Class: corpus.MultiMatch})
	}
	// The prototype page's first subtree is a <main>, the other page's a
	// <menu>: both want the identifier "m", so it goes to whichever path
	// is simplified first — the prototype's, in the per-pair order.
	order := []*corpus.Page{
		{HTML: `<html><body><main><p>a</p><p>b</p><p>c</p></main></body></html>`},
		{HTML: `<html><body><menu><p>x</p><p>y</p></menu></body></html>`},
	}
	return append(clusters, headings, order)
}

func candidatesPerPage(pages []*corpus.Page) [][]*Candidate {
	perPage := make([][]*Candidate, len(pages))
	for i, p := range pages {
		perPage[i] = SinglePageCandidates(p.Tree(), i)
	}
	return perPage
}

// pageTags lists every tag name on the pages, sorted.
func pageTags(pages []*corpus.Page) []string {
	seen := make(map[string]bool)
	for _, p := range pages {
		p.Tree().Walk(func(n *tagtree.Node) bool {
			if n.Type == tagtree.TagNode {
				seen[n.Tag] = true
			}
			return true
		})
	}
	tags := make([]string, 0, len(seen))
	for tag := range seen { //thorlint:allow no-map-range-order sorted below
		tags = append(tags, tag)
	}
	slices.Sort(tags)
	return tags
}

// pathTags lists every tag name on the candidates' paths, sorted.
func pathTags(perPage [][]*Candidate) []string {
	var tags []string
	for _, cands := range perPage {
		for _, c := range cands {
			for _, step := range strings.Split(c.Path, "/") {
				if i := strings.IndexByte(step, '['); i >= 0 {
					step = step[:i]
				}
				tags = append(tags, step)
			}
		}
	}
	slices.Sort(tags)
	return slices.Compact(tags)
}

// memoCases are hand-built candidate clusters aimed at the matcher's
// per-call path memo. Page 0 holds the most candidates in each, so it is
// the prototype page.
//
//   - "late tag": the last page brings tags neither the prototype nor
//     an earlier page has (aside, abbr, both wanting "a" at q=1), so
//     identifiers are minted mid-stream, in candidate order, and its
//     aside path is one step from the prototype's table path.
//   - "same simplified": at q=1 html takes "h", so h1 becomes "1" and
//     html/body/div/h1 simplifies to div[1]'s "hbd1": two raw paths, one
//     simplified form, first met on a later page.
//   - "repeated path": html/body/div[1] comes back on page 2 with the
//     shape of the prototype's div[2], so only its path term may be
//     reused; its fanout, depth and size terms are its own.
func memoCases() map[string][][]*Candidate {
	cand := func(page int, path string, fanout, depth, nodes int) *Candidate {
		return &Candidate{PageIdx: page, Path: path, Fanout: fanout, Depth: depth, Nodes: nodes}
	}
	return map[string][][]*Candidate{
		"late tag": {
			{
				cand(0, "html/body/div/table/tr/td", 2, 5, 5),
				cand(0, "html/body/div/ul/li", 1, 4, 2),
				cand(0, "html/body/div/p", 1, 3, 2),
				cand(0, "html/body/div/span", 1, 3, 2),
			},
			{cand(1, "html/body/div/table/tr/td", 2, 5, 5), cand(1, "html/body/div/p", 1, 3, 2)},
			{cand(2, "html/body/div/ul/li", 1, 4, 3), cand(2, "html/body/div/p", 1, 3, 3)},
			{cand(3, "html/body/div/aside/tr/td", 2, 5, 5), cand(3, "html/body/div/abbr", 1, 3, 2), cand(3, "html/body/div/ul/li", 1, 4, 2)},
		},
		"same simplified": {
			{
				cand(0, "html/body/div[1]", 2, 2, 5),
				cand(0, "html/body/div[2]", 3, 2, 7),
				cand(0, "html/body/p", 1, 2, 2),
			},
			{cand(1, "html/body/div[1]", 2, 2, 5), cand(1, "html/body/p", 1, 2, 2)},
			{cand(2, "html/body/div/h1", 2, 2, 5), cand(2, "html/body/div/h2", 3, 2, 7)},
		},
		"repeated path": {
			{
				cand(0, "html/body/div[1]", 2, 2, 5),
				cand(0, "html/body/div[2]", 6, 2, 13),
				cand(0, "html/body/p", 1, 2, 2),
			},
			{cand(1, "html/body/div[1]", 2, 2, 5), cand(1, "html/body/div[2]", 6, 2, 13)},
			{cand(2, "html/body/div[1]", 6, 2, 13), cand(2, "html/body/div[3]", 2, 2, 5)},
		},
	}
}

// TestFindCommonSubtreeSetsMatchesPerPairReference pins the matcher to
// the per-pair loop it replaced (findCommonSubtreeSetsRef): the same
// sets with the same members, by pointer and in order, and the same
// simplifier state afterwards, across the weightings, both q values, and
// a MaxMatchDistance that rejects pairs. It runs on the probed and
// page-built clusters of phase2Clusters and on the memo cases.
func TestFindCommonSubtreeSetsMatchesPerPairReference(t *testing.T) {
	type matcherCase struct {
		name    string
		perPage [][]*Candidate
		tags    []string
	}
	var cases []matcherCase
	for ci, pages := range phase2Clusters(t) {
		cases = append(cases, matcherCase{fmt.Sprintf("cluster %d", ci), candidatesPerPage(pages), pageTags(pages)})
	}
	memo := memoCases()
	for _, name := range []string{"late tag", "same simplified", "repeated path"} {
		cases = append(cases, matcherCase{name, memo[name], pathTags(memo[name])})
	}
	weightings := map[string]ShapeWeights{"all": WeightsAll, "path": WeightsPathOnly, "fanout": WeightsFanoutOnly}
	digitIDs, filtered := false, false
	for ci, mc := range cases {
		perPage, tags := mc.perPage, mc.tags
		for _, wname := range []string{"all", "path", "fanout"} {
			for _, q := range []int{1, 2} {
				members := make(map[float64]int)
				for _, maxD := range []float64{1.0, 0.3} {
					name := fmt.Sprintf("%s/%s/q=%d/max=%.1f", mc.name, wname, q, maxD)
					cfg := DefaultConfig()
					cfg.ShapeWeights = weightings[wname]
					cfg.PathSimplifyQ = q
					cfg.MaxMatchDistance = maxD
					seed := int64(17 + ci)
					gotSimp, wantSimp := strdist.NewSimplifier(q), strdist.NewSimplifier(q)
					got := FindCommonSubtreeSets(perPage, cfg, rand.New(rand.NewSource(seed)), gotSimp)
					want := findCommonSubtreeSetsRef(perPage, cfg, rand.New(rand.NewSource(seed)), wantSimp)
					assertSameSets(t, name, got, want)
					for _, set := range got {
						members[maxD] += len(set.Members)
					}
					// The simplifiers must hold the same assignments: asked
					// for every tag in the same order, they answer alike.
					for _, tag := range tags {
						if g, w := gotSimp.ID(tag), wantSimp.ID(tag); g != w {
							t.Fatalf("%s: tag %q simplified to %q, reference %q", name, tag, g, w)
						}
						if q == 1 && len(tag) == 2 && tag[0] == 'h' && tag[1] >= '1' && tag[1] <= '6' && gotSimp.ID(tag) == tag[1:] {
							digitIDs = true
						}
					}
				}
				filtered = filtered || members[0.3] < members[1.0]
			}
		}
	}
	if !digitIDs {
		t.Fatal("no heading tag fell back to a digit identifier; the collision case is not covered")
	}
	if !filtered {
		t.Fatal("MaxMatchDistance 0.3 rejected no pair; the filter is not covered")
	}
}

func assertSameSets(t *testing.T, name string, got, want []*SubtreeSet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sets, reference %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i].Proto != want[i].Proto {
			t.Fatalf("%s: set %d prototype differs", name, i)
		}
		if !slices.Equal(got[i].Members, want[i].Members) {
			t.Fatalf("%s: set %d has %d members, reference %d (or a different member or order)",
				name, i, len(got[i].Members), len(want[i].Members))
		}
	}
}

// TestRankSubtreeSetsIntraSimMatchesStemReference pins the per-set stem
// memo: every set's IntraSim is bit-identical to the value computed with
// stem.Stem on every token, under TFIDF and raw content vectors.
func TestRankSubtreeSetsIntraSimMatchesStemReference(t *testing.T) {
	for ci, pages := range phase2Clusters(t) {
		for _, raw := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Workers = 2
			cfg.RawContentVectors = raw
			sets := FindCommonSubtreeSets(candidatesPerPage(pages), cfg, rand.New(rand.NewSource(3)), strdist.NewSimplifier(cfg.PathSimplifyQ))
			want := make(map[*SubtreeSet]float64, len(sets))
			for _, s := range sets {
				want[s] = intraSimRef(s, cfg)
			}
			RankSubtreeSets(sets, cfg)
			for i, s := range sets {
				if math.Float64bits(s.IntraSim) != math.Float64bits(want[s]) {
					t.Fatalf("cluster %d raw=%v set %d: IntraSim %v, reference %v", ci, raw, i, s.IntraSim, want[s])
				}
			}
		}
	}
}

// TestGreedyPairingTieOrder pins the matcher's tie rule: among pairs at
// equal distance the lower set index wins, then the lower candidate
// index.
func TestGreedyPairingTieOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ShapeWeights = WeightsFanoutOnly
	cfg.MaxMatchDistance = 0.1
	cand := func(page, fanout int) *Candidate {
		return &Candidate{PageIdx: page, Path: "html/body/div", Fanout: fanout, Depth: 2, Nodes: 3}
	}
	run := func(perPage [][]*Candidate) []*SubtreeSet {
		return FindCommonSubtreeSets(perPage, cfg, rand.New(rand.NewSource(1)), strdist.NewSimplifier(1))
	}

	// Two prototypes tie for one page candidate: set 0 takes it.
	proto := []*Candidate{cand(0, 4), cand(0, 4)}
	other := []*Candidate{cand(1, 4)}
	sets := run([][]*Candidate{proto, other})
	if len(sets[0].Members) != 2 || sets[0].Members[1] != other[0] || len(sets[1].Members) != 1 {
		t.Errorf("set tie: members %d/%d, want the candidate in set 0", len(sets[0].Members), len(sets[1].Members))
	}

	// One prototype ties between two page candidates: candidate 0 joins.
	// The prototype page holds the most candidates (so it is the only
	// prototype choice); its other subtrees match nothing within 0.1.
	proto = []*Candidate{cand(0, 4), cand(0, 100), cand(0, 200)}
	other = []*Candidate{cand(1, 4), cand(1, 4)}
	sets = run([][]*Candidate{proto, other})
	if len(sets[0].Members) != 2 || sets[0].Members[1] != other[0] {
		t.Errorf("candidate tie: set 0 did not take candidate 0")
	}
	if len(sets[1].Members) != 1 || len(sets[2].Members) != 1 {
		t.Errorf("far prototypes matched a candidate beyond MaxMatchDistance")
	}
}

// TestWrapperMatchFirstMinimumWins pins Wrapper.match's tie rule: of two
// candidates at equal distance from the profile, the first in document
// order is extracted.
func TestWrapperMatchFirstMinimumWins(t *testing.T) {
	page := corpus.Page{HTML: `<html><body><div><p>a</p><p>b</p></div><div><p>c</p><p>d</p></div></body></html>`}
	tree := page.Tree()
	first, err := tagtree.Lookup(tree, "html/body/div[1]")
	if err != nil {
		t.Fatal(err)
	}
	second, err := tagtree.Lookup(tree, "html/body/div[2]")
	if err != nil {
		t.Fatal(err)
	}
	// The profile path has no index, so both divs are one edit away, and
	// their fanout, depth and size are identical.
	w := &Wrapper{
		Paths:       []string{"html/body/div"},
		Fanout:      2,
		Depth:       2,
		Nodes:       float64(first.NodeCount()),
		Weights:     WeightsAll,
		MaxDistance: 0.35,
		simp:        strdist.NewSimplifier(1),
	}
	dFirst := w.nodeDistance(first)
	if dSecond := w.nodeDistance(second); dFirst != dSecond { //thorlint:allow no-float-eq the test needs an exact tie
		t.Fatalf("divs not tied: %v vs %v", dFirst, dSecond)
	}
	got, d := w.Extract(tree)
	if got != first {
		t.Fatalf("extracted %v at %v, want the first div in document order", got, d)
	}
	if node, _ := extractRef(w, tree); node != first {
		t.Fatalf("reference extracted %v, want the first div", node)
	}
}

// TestFindCommonSubtreeSetsAllocs is phase two's allocation gate: one
// FindCommonSubtreeSets call allocates a bounded number of times per
// candidate — its sets, their member lists, and one simplified path per
// prototype — never per (prototype, candidate) pair.
func TestFindCommonSubtreeSetsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI step")
	}
	pages := probeSite(t, 4, 11).Pages
	cfg := DefaultConfig()
	cfg.Workers = 1
	p1 := Phase1(pages, cfg)
	perPage := candidatesPerPage(p1.Ranked[0].Pages)
	cands, pairs := 0, 0
	for _, pc := range perPage {
		cands += len(pc)
	}
	for _, pc := range perPage {
		pairs += len(pc) * len(perPage[0])
	}
	// Fresh simplifiers and sources are made outside the measured calls.
	const runs = 5
	simps := make([]*strdist.Simplifier, runs+1)
	rngs := make([]*rand.Rand, runs+1)
	for i := range simps {
		simps[i] = strdist.NewSimplifier(cfg.PathSimplifyQ)
		rngs[i] = rand.New(rand.NewSource(int64(i)))
	}
	call := 0
	allocs := testing.AllocsPerRun(runs, func() {
		FindCommonSubtreeSets(perPage, cfg, rngs[call], simps[call])
		call++
	})
	budget := 2*cands + 64
	t.Logf("%d pages, %d candidates, ~%d pairs: %.0f allocs per call, budget %d", len(perPage), cands, pairs, allocs, budget)
	if allocs > float64(budget) {
		t.Errorf("%.0f allocs per FindCommonSubtreeSets call, budget %d (2 per candidate + 64)", allocs, budget)
	}
}

// TestRankSubtreeSetsEdgeCases pins IntraSim bit for bit against
// intraSimRef, under TFIDF and raw content vectors, on sets built to
// stress the ID-space counting: a punctuation-only member (an empty
// document that still counts toward n) beside worded ones, tokens whose
// Porter stems collide, and uppercase and non-ASCII tokens, which the
// tokenizer lowercases before stemming.
func TestRankSubtreeSetsEdgeCases(t *testing.T) {
	if stem.Stem("running") != stem.Stem("runs") {
		t.Fatal("running and runs no longer share a stem; the collision case is not covered")
	}
	set := func(bodies ...string) *SubtreeSet {
		s := &SubtreeSet{}
		for i, body := range bodies {
			page := &corpus.Page{HTML: "<html><body><div>" + body + "</div></body></html>"}
			s.Members = append(s.Members, &Candidate{Node: page.Tree(), PageIdx: i})
		}
		s.Proto = s.Members[0]
		return s
	}
	cases := map[string]*SubtreeSet{
		"punctuation member": set(`<p>red apple pie</p>`, `<p>| — | · |</p>`, `<p>green apple tart</p>`, `<p>red apple</p>`),
		"punctuation only":   set(`<p>|</p>`, `<p>— · —</p>`),
		"stem collision":     set(`<p>running runs</p>`, `<p>run runner</p>`, `<p>runs</p>`, `<p>walking walks run</p>`),
		"case and non-ASCII": set(`<p>Café CAFÉ café</p>`, `<p>Straße STRASSE naïve İstanbul</p>`, `<p>RUNNING Über über</p>`, `<p>日本語 テスト running ǅemal</p>`),
	}
	for _, name := range []string{"punctuation member", "punctuation only", "stem collision", "case and non-ASCII"} {
		for _, raw := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.RawContentVectors = raw
			got, want := rankedIntraSim(cases[name], cfg), intraSimRef(cases[name], cfg)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s raw=%v: IntraSim %v, reference %v", name, raw, got, want)
			}
		}
	}
}

// TestStemOfSpellingIsStemOfToken pins what intraSetSimilarity relies on
// to stem a token as the text spells it: stem.Stem lowercases its input
// first, and strings.ToLower is idempotent on every letter and digit
// rune — the only runes a word token holds — so the stem of a spelling
// equals the stem of its lowercase token.
func TestStemOfSpellingIsStemOfToken(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			continue
		}
		if l := strings.ToLower(string(r)); strings.ToLower(l) != l {
			t.Fatalf("lowercasing %U is not idempotent: %q then %q", r, l, strings.ToLower(l))
		}
	}
	for _, tok := range []string{"RUNNING", "Runs", "CAFÉ", "Straße", "ÜBER", "ǅemal", "İstanbul"} {
		if got, want := stem.Stem(tok), stem.Stem(strings.ToLower(tok)); got != want {
			t.Errorf("stem.Stem(%q) = %q, stem of the lowercase token %q", tok, got, want)
		}
	}
}

// TestRankSubtreeSetsAllocs is set ranking's allocation gate: one
// RankSubtreeSets call allocates a bounded number of times per distinct
// spelling among the members' pages — its stem, its lowercase copy —
// plus its amortized scratch, and never per member or per set: the
// members' vectors are weighted in per-worker scratch. A term-count map,
// a vector or a Dict per member or set breaks the budget.
func TestRankSubtreeSetsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI step")
	}
	pages := probeSite(t, 4, 11).Pages
	cfg := DefaultConfig()
	cfg.Workers = 1
	cluster := Phase1(pages, cfg).Ranked[0].Pages
	// Each run ranks its own freshly matched sets (new candidates over the
	// same trees), made outside the measured calls, so nothing a run
	// leaves on its candidates can serve the next.
	const runs = 5
	sets := make([][]*SubtreeSet, runs+1)
	for i := range sets {
		sets[i] = FindCommonSubtreeSets(candidatesPerPage(cluster), cfg, rand.New(rand.NewSource(1)), strdist.NewSimplifier(cfg.PathSimplifyQ))
	}
	members := 0
	spellings := make(map[string]bool)
	for _, s := range sets[0] {
		members += len(s.Members)
		for _, m := range s.Members {
			m.Node.Walk(func(n *tagtree.Node) bool {
				if n.Type == tagtree.ContentNode {
					tagtree.EachRawToken(n.Content, func(tok string) { spellings[tok] = true })
				}
				return true
			})
		}
	}
	call := 0
	allocs := testing.AllocsPerRun(runs, func() {
		RankSubtreeSets(sets[call], cfg)
		call++
	})
	budget := 2*len(spellings) + 64
	t.Logf("%d sets, %d members, %d distinct spellings: %.0f allocs per call, budget %d", len(sets[0]), members, len(spellings), allocs, budget)
	if allocs > float64(budget) {
		t.Errorf("%.0f allocs per RankSubtreeSets call, budget %d (2 per distinct spelling + 64)", allocs, budget)
	}
}

// rankedIntraSim ranks s alone and returns its IntraSim.
func rankedIntraSim(s *SubtreeSet, cfg Config) float64 {
	RankSubtreeSets([]*SubtreeSet{s}, cfg)
	return s.IntraSim
}

// TestFindCommonSubtreeSetsRandomTies pins the argmin matcher to the
// sorted per-pair reference on random tie-heavy clusters: fanout-only
// weights over fanouts 1–4, so most distances tie, matched within
// MaxMatchDistance 1.0, 0.3 and 0.1. At 0.1 only equal fanouts match,
// so some sets have no admissible candidate on a page. The prototype
// page holds the most candidates, so a page never has more candidates
// than there are sets; the cases cover pages with fewer (S > C) and as
// many (S = C), and at 0.1 also pages with more admissible candidates
// than sets that can still take one.
func TestFindCommonSubtreeSetsRandomTies(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var sGreater, sEqual, noAdmissible bool
	for trial := 0; trial < 400; trial++ {
		pages := 2 + rng.Intn(4)
		protos := 1 + rng.Intn(7)
		perPage := make([][]*Candidate, pages)
		for p := range perPage {
			n := protos
			if p > 0 {
				n = rng.Intn(protos + 1)
			}
			for c := 0; c < n; c++ {
				perPage[p] = append(perPage[p], &Candidate{PageIdx: p, Path: "html/body/div", Fanout: 1 + rng.Intn(4), Depth: 2, Nodes: 3})
			}
		}
		for _, maxD := range []float64{1.0, 0.3, 0.1} {
			cfg := DefaultConfig()
			cfg.ShapeWeights = WeightsFanoutOnly
			cfg.MaxMatchDistance = maxD
			seed := int64(trial)
			got := FindCommonSubtreeSets(perPage, cfg, rand.New(rand.NewSource(seed)), strdist.NewSimplifier(1))
			want := findCommonSubtreeSetsRef(perPage, cfg, rand.New(rand.NewSource(seed)), strdist.NewSimplifier(1))
			assertSameSets(t, fmt.Sprintf("trial %d max=%.1f", trial, maxD), got, want)
			protoPage := got[0].Proto.PageIdx
			for p, cands := range perPage {
				if p == protoPage || len(cands) == 0 {
					continue
				}
				sGreater = sGreater || len(perPage[protoPage]) > len(cands)
				sEqual = sEqual || len(perPage[protoPage]) == len(cands)
				if maxD == 0.1 { //thorlint:allow no-float-eq the loop's own literal
					for _, proto := range perPage[protoPage] {
						admissible := false
						for _, c := range cands {
							admissible = admissible || c.Fanout == proto.Fanout
						}
						noAdmissible = noAdmissible || !admissible
					}
				}
			}
		}
	}
	if !sGreater || !sEqual || !noAdmissible {
		t.Fatalf("cases not covered: S>C %v, S=C %v, a set with no admissible candidate %v", sGreater, sEqual, noAdmissible)
	}
}

// TestRankSubtreeSetsSharedPagesMatchReference pins IntraSim bit for bit
// against intraSimRef, under both weightings, when the sets of one call
// share their pages: one set's members nest inside another set's members
// on the same pages, one set's members are whole page trees, one set's
// members are bare text nodes, and one word is spelled in a different
// case on each page. Every set is ranked in the same call, so they all
// read the one token pass over those pages.
func TestRankSubtreeSetsSharedPagesMatchReference(t *testing.T) {
	spellings := []string{"Apple", "APPLE", "apple", "aPPLE"}
	var outer, inner, whole, text, cased, single []*Candidate
	for i, apple := range spellings {
		page := &corpus.Page{HTML: fmt.Sprintf(`<html><body>`+
			`<div><p>%s pie number %d</p><p>shared words here</p><p>Running runs</p></div>`+
			`<div><span>%s tart</span></div>`+
			`<p>footer · %d</p></body></html>`, apple, i, apple, i%2)}
		root := page.Tree()
		find := func(path string) *tagtree.Node {
			n, err := tagtree.Lookup(root, path)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		outer = append(outer, &Candidate{Node: find("html/body/div[1]"), PageIdx: i})
		inner = append(inner, &Candidate{Node: find("html/body/div[1]/p[1]"), PageIdx: i})
		whole = append(whole, &Candidate{Node: root, PageIdx: i})
		text = append(text, &Candidate{Node: find("html/body/div[1]/p[1]").Children[0], PageIdx: i})
		cased = append(cased, &Candidate{Node: find("html/body/div[2]/span"), PageIdx: i})
		if i == 0 {
			single = append(single, &Candidate{Node: find("html/body/p"), PageIdx: i})
		}
	}
	for _, raw := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Workers = 2
		cfg.RawContentVectors = raw
		var sets []*SubtreeSet
		for _, members := range [][]*Candidate{outer, inner, whole, text, cased, single, outer[1:3]} {
			sets = append(sets, &SubtreeSet{Proto: members[0], Members: members})
		}
		names := map[*SubtreeSet]string{sets[0]: "outer", sets[1]: "nested", sets[2]: "whole tree", sets[3]: "text node", sets[4]: "case", sets[5]: "single", sets[6]: "outer again"}
		want := make(map[*SubtreeSet]float64, len(sets))
		for _, s := range sets {
			want[s] = intraSimRef(s, cfg)
		}
		RankSubtreeSets(sets, cfg)
		for _, s := range sets {
			if math.Float64bits(s.IntraSim) != math.Float64bits(want[s]) {
				t.Errorf("raw=%v %s: IntraSim %v, reference %v", raw, names[s], s.IntraSim, want[s])
			}
		}
	}
}

// chainPage builds a chain of levels nested <div>s under <html>. With
// textAtEvery, each div also holds its own word and a same-tag leaf
// sibling of the next level, so every level is a candidate and every
// step past html carries a sibling index; otherwise the only text is
// one word at the bottom.
func chainPage(levels int, textAtEvery bool) (root, bottom *tagtree.Node) {
	root = tagtree.NewTag("html")
	cur := root
	for i := 0; i < levels; i++ {
		next := tagtree.NewTag("div")
		if textAtEvery {
			cur.AppendChild(tagtree.NewContent(fmt.Sprintf("w%d", i)))
		}
		cur.AppendChild(next)
		if textAtEvery {
			leaf := tagtree.NewTag("div")
			leaf.AppendChild(tagtree.NewContent("leaf"))
			cur.AppendChild(leaf)
		}
		cur = next
	}
	cur.AppendChild(tagtree.NewContent("word"))
	return root, cur
}

// TestSinglePageCandidatesMatchesPerNodeReference pins the single walk
// to the per-node walk it replaced: the same candidates, deep-equal and
// in order, on the phase2Clusters pages, on chains, on a walk started
// below the root, and on pages whose text is white space or punctuation
// only in places.
func TestSinglePageCandidatesMatchesPerNodeReference(t *testing.T) {
	type tree struct {
		name string
		root *tagtree.Node
	}
	var trees []tree
	for ci, pages := range phase2Clusters(t) {
		for pi, p := range pages {
			trees = append(trees, tree{fmt.Sprintf("cluster %d page %d", ci, pi), p.Tree()})
		}
	}
	bare, _ := chainPage(40, false)
	dense, _ := chainPage(40, true)
	trees = append(trees, tree{"bare chain", bare}, tree{"dense chain", dense}, tree{"below the root", dense.Children[2].Children[0]})
	for i, html := range []string{
		`<html><body><div> </div><div>|</div><div><p>a</p> </div><ul><li>x</li><li> · </li><li>y</li></ul></body></html>`,
		`<html><body><p>—</p><p>  </p><table><tr><td>1</td><td>2</td></tr><tr><td>3</td></tr></table></body></html>`,
		`<html><head><title>t</title></head><body><div><div><span>s</span><b> </b></div></div>x</body></html>`,
		`just text`,
	} {
		trees = append(trees, tree{fmt.Sprintf("page %d", i), htmlx.Parse(html)})
	}
	trees = append(trees, tree{"content root", tagtree.NewContent("loose text")})
	for _, tr := range trees {
		got, want := SinglePageCandidates(tr.root, 3), singlePageCandidatesRef(tr.root, 3)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d candidates, reference %d (or a different candidate or order)", tr.name, len(got), len(want))
		}
	}
}

// TestSinglePageCandidatesDeepChain bounds single-page analysis on a
// hostile nesting depth: a chain of 100,000 <div>s with one word at the
// bottom has that bottom div as its only candidate, with the right
// depth, size and path, in well under the 2 s budget. A walk that
// re-reads each node's subtree is quadratic here and takes minutes.
func TestSinglePageCandidatesDeepChain(t *testing.T) {
	const levels = 100_000
	root, bottom := chainPage(levels, false)
	start := time.Now()
	cands := SinglePageCandidates(root, 0)
	elapsed := time.Since(start)
	if len(cands) != 1 {
		t.Fatalf("%d candidates, want 1", len(cands))
	}
	c := cands[0]
	if c.Node != bottom || c.Depth != levels || c.Nodes != 2 || c.Fanout != 1 {
		t.Errorf("candidate is the bottom div %v, depth %d, nodes %d, fanout %d; want true, %d, 2, 1", c.Node == bottom, c.Depth, c.Nodes, c.Fanout, levels)
	}
	if want := "html" + strings.Repeat("/div", levels); c.Path != want {
		t.Errorf("path of %d bytes, want %d", len(c.Path), len(want))
	}
	if elapsed > 2*time.Second {
		t.Errorf("SinglePageCandidates took %v on a %d-level chain, budget 2s", elapsed, levels)
	}
}

// TestSinglePageCandidatesAllocs is single-page analysis' allocation
// gate: a call allocates a bounded number of times per candidate (the
// candidate and its path string) plus its amortized scratch, never per
// candidate and ancestor. On a chain whose every level is a candidate
// with an indexed step, building each path from the ancestors allocates
// per step and breaks the budget.
func TestSinglePageCandidatesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI step")
	}
	root, _ := chainPage(300, true)
	cands := len(SinglePageCandidates(root, 0))
	allocs := testing.AllocsPerRun(5, func() { SinglePageCandidates(root, 0) })
	// 128 covers the doubling growth of the walk's four buffers.
	budget := 2*cands + 128
	t.Logf("%d candidates: %.0f allocs per call, budget %d", cands, allocs, budget)
	if allocs > float64(budget) {
		t.Errorf("%.0f allocs per SinglePageCandidates call, budget %d (2 per candidate + 128)", allocs, budget)
	}
}
