package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"thor/internal/strdist"
)

// noRepeatCandidates draws pages of candidates whose shapes are random
// over many paths, fanouts, depths and sizes, so no page repeats another
// page's shape sequence: the matcher's reuse finds nothing and only
// costs. It stands for a cluster whose pages share no template.
func noRepeatCandidates(pages, perPage int, seed int64) [][]*Candidate {
	rng := rand.New(rand.NewSource(seed))
	tags := []string{"div", "ul", "li", "table", "tr", "td", "span", "p", "a", "b"}
	out := make([][]*Candidate, pages)
	for p := range out {
		for c := 0; c < perPage; c++ {
			steps := []string{"html", "body"}
			for d := 2 + rng.Intn(6); d > 0; d-- {
				steps = append(steps, fmt.Sprintf("%s[%d]", tags[rng.Intn(len(tags))], 1+rng.Intn(3)))
			}
			out[p] = append(out[p], &Candidate{PageIdx: p, Path: strings.Join(steps, "/"),
				Fanout: rng.Intn(12), Depth: len(steps), Nodes: 1 + rng.Intn(60)})
		}
	}
	return out
}

// BenchmarkFindCommonSubtreeSetsNoRepeat matches 60 pages of 40
// candidates, none of whose shape sequences repeat.
func BenchmarkFindCommonSubtreeSetsNoRepeat(b *testing.B) {
	perPage := noRepeatCandidates(60, 40, 3)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindCommonSubtreeSets(perPage, cfg, rand.New(rand.NewSource(1)), strdist.NewSimplifier(cfg.PathSimplifyQ))
	}
}
