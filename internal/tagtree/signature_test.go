package tagtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"thor/internal/stem"
)

func TestTagCounts(t *testing.T) {
	root := buildSample()
	got := root.TagCounts()
	want := map[string]int{
		"html": 1, "head": 1, "title": 1, "body": 1,
		"table": 1, "tr": 2, "td": 2, "p": 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TagCounts = %v, want %v", got, want)
	}
	if root.DistinctTags() != len(want) {
		t.Errorf("DistinctTags = %d, want %d", root.DistinctTags(), len(want))
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"", nil},
		{"   ", nil},
		{"price: $12.99", []string{"price", "12", "99"}},
		{"foo-bar_baz", []string{"foo", "bar", "baz"}},
		{"Ünïcøde Wörds", []string{"ünïcøde", "wörds"}},
		{"a", []string{"a"}},
		{"2024 items", []string{"2024", "items"}},
		{"trailing!", []string{"trailing"}},
		{"!leading", []string{"leading"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if strings.Join(got, "|") != strings.Join(c.want, "|") {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestContentTokensDocumentOrder(t *testing.T) {
	root := buildSample()
	got := root.ContentTokens()
	want := []string{"ibm", "a", "b", "text"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("ContentTokens = %v, want %v", got, want)
	}
}

func TestTermCountsWithNormalizer(t *testing.T) {
	div := NewTag("div")
	div.AppendChild(NewContent("Cats cats CATS dog"))
	got := div.TermCounts(nil)
	if got["cats"] != 3 || got["dog"] != 1 {
		t.Errorf("TermCounts identity = %v", got)
	}
	upper := div.TermCounts(strings.ToUpper)
	if upper["CATS"] != 3 {
		t.Errorf("TermCounts normalized = %v", upper)
	}
	// A normalizer returning "" drops the token.
	dropped := div.TermCounts(func(s string) string {
		if s == "dog" {
			return ""
		}
		return s
	})
	if _, ok := dropped["dog"]; ok {
		t.Errorf("empty-normalized token not dropped: %v", dropped)
	}
}

func TestDistinctTerms(t *testing.T) {
	div := NewTag("div")
	div.AppendChild(NewContent("one two two three"))
	sub := NewTag("span")
	sub.AppendChild(NewContent("three four"))
	div.AppendChild(sub)
	if got := div.DistinctTerms(); got != 4 {
		t.Errorf("DistinctTerms = %d, want 4", got)
	}
	// A reused scratch set is cleared first: the previous tree's terms
	// must not count toward the next one.
	seen := map[string]struct{}{"stale": {}, "one": {}}
	if got := div.DistinctTermsIn(seen); got != 4 {
		t.Errorf("DistinctTermsIn (dirty scratch) = %d, want 4", got)
	}
	other := NewTag("p")
	other.AppendChild(NewContent("Two FIVE"))
	if got := other.DistinctTermsIn(seen); got != 2 {
		t.Errorf("DistinctTermsIn (reused scratch) = %d, want 2", got)
	}
}

// TestEachRawTokenLowersToEachToken pins the raw token iterator to the
// lowercasing one: the same token boundaries, and strings.ToLower of
// each raw token is EachToken's token.
func TestEachRawTokenLowersToEachToken(t *testing.T) {
	for _, text := range []string{"", "Hello, World", "CAFÉ café|naïve—ÜBER", "h1 H2 x42y", "日本語 テスト", "İstanbul ǅemal", "a\xffb", "Red APPLE"} {
		var raw, lower []string
		EachRawToken(text, func(tok string) { raw = append(raw, strings.ToLower(tok)) })
		EachToken(text, func(tok string) { lower = append(lower, tok) })
		if !slices.Equal(raw, lower) {
			t.Errorf("%q: lowered raw tokens %q, EachToken %q", text, raw, lower)
		}
	}
	var got []string
	EachRawToken("Red APPLE", func(tok string) { got = append(got, tok) })
	if !slices.Equal(got, []string{"Red", "APPLE"}) {
		t.Errorf("EachRawToken = %q, want the spellings", got)
	}
}

// TestDistinctTermsInMatchesLowercaseSet pins DistinctTermsIn, which
// lowercases each distinct spelling once, to the set of lowercase
// tokens: spellings of one word in different cases count once, and so
// do non-ASCII words whose cases differ in byte length.
func TestDistinctTermsInMatchesLowercaseSet(t *testing.T) {
	texts := [][]string{
		{"Apple APPLE apple", "aPPLE pie"},
		{"Apple APPLE", "Pie"}, // no lowercase spelling of either word
		{"CAFÉ café Café", "Straße STRASSE straße"},
		{"İstanbul İSTANBUL i̇stanbul", "ǅemal ǄEMAL ǆemal"},
		{"ÜBER über Über", "日本語 テスト 日本語", "h1 H1 x42Y X42y"},
		{"| — · |", ""},
	}
	seen := make(map[string]struct{})
	for _, parts := range texts {
		div := NewTag("div")
		for _, text := range parts {
			p := NewTag("p")
			p.AppendChild(NewContent(text))
			div.AppendChild(p)
		}
		want := make(map[string]bool)
		for _, tok := range div.ContentTokens() {
			want[tok] = true
		}
		if got := div.DistinctTermsIn(seen); got != len(want) {
			t.Errorf("%q: DistinctTermsIn = %d, want %d distinct lowercase tokens", parts, got, len(want))
		}
	}
}

// TestTermCounterMemo checks one reused counter against normalizing every
// occurrence: spellings in several casings, pages whose text buffer is
// overwritten between calls, and a vocabulary past the memo's bound, met
// twice so that the second pass runs on a memo that started over.
func TestTermCounterMemo(t *testing.T) {
	for _, normalize := range []func(string) string{nil, strings.ToUpper, stemLike} {
		c := NewTermCounter(normalize)
		check := func(what string, n *Node) {
			t.Helper()
			want := make(map[string]int)
			for _, tok := range n.ContentTokens() {
				if normalize != nil {
					tok = normalize(tok)
				}
				if tok != "" {
					want[tok]++
				}
			}
			if got := c.Count(n); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: memo counts %v, want %v", what, got, want)
			}
		}
		buf := []byte("Running RUNNING running runs Runner 42 Ünïcode ünïcode Apples APPLE apple")
		for round := 0; round < 3; round++ {
			p := NewTag("p")
			p.AppendChild(NewContent(unsafe.String(&buf[0], len(buf))))
			check(fmt.Sprintf("round %d", round), p)
			for i := range buf {
				if buf[i] == 'u' {
					buf[i] = 'a'
				}
			}
		}
		var b strings.Builder
		for i := 0; i < maxTermMemo+100; i++ {
			fmt.Fprintf(&b, "Word%d words ", i)
		}
		p := NewTag("p")
		p.AppendChild(NewContent(b.String()))
		for round := 0; round < 2; round++ {
			check(fmt.Sprintf("overflow round %d", round), p)
			if len(c.memo) > maxTermMemo {
				t.Fatalf("memo holds %d spellings, bound %d", len(c.memo), maxTermMemo)
			}
		}
	}
}

// stemLike is a pure normalizer that drops some tokens and merges others.
func stemLike(tok string) string {
	if len(tok) < 2 {
		return ""
	}
	return strings.TrimSuffix(tok, "s")
}

// BenchmarkTermCounterVocabulary serves a stream of pages, 228 tokens
// each, drawn Zipf-distributed (s = 1.07) from vocabularies below and
// above the memo's bound, through one warm counter normalizing with a
// Porter-style stemmer, and through stemming every occurrence, the
// memo's fallback cost. One op is one page.
func BenchmarkTermCounterVocabulary(b *testing.B) {
	for _, v := range []int{2_000, 20_000, 200_000} {
		pages := zipfPages(v, 4000)
		b.Run(fmt.Sprintf("vocab=%d/memo", v), func(b *testing.B) {
			c := NewTermCounter(stem.Stem)
			for _, p := range pages {
				c.Count(p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Count(pages[i%len(pages)])
			}
		})
		b.Run(fmt.Sprintf("vocab=%d/per-occurrence", v), func(b *testing.B) {
			counts := make(map[string]int)
			count := func(tok string) { counts[stem.Stem(tok)]++ }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(counts)
				for _, p := range pages[i%len(pages)].Children {
					EachToken(p.Children[0].Content, count)
				}
			}
		})
	}
}

// zipfPages returns n pages of 12 paragraphs of 19 words each, drawn
// from v random words of 3 to 10 letters, one in five capitalized.
func zipfPages(v, n int) []*Node {
	rng := rand.New(rand.NewSource(1))
	words := make([]string, 0, v)
	seen := make(map[string]bool)
	for len(words) < v {
		w := make([]byte, 3+rng.Intn(8))
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		if rng.Intn(5) == 0 {
			w[0] -= 'a' - 'A'
		}
		if !seen[string(w)] {
			seen[string(w)] = true
			words = append(words, string(w))
		}
	}
	z := rand.NewZipf(rng, 1.07, 2, uint64(v-1))
	pages := make([]*Node, n)
	for i := range pages {
		pages[i] = NewTag("div")
		for k := 0; k < 12; k++ {
			var sb strings.Builder
			for t := 0; t < 19; t++ {
				sb.WriteString(words[z.Uint64()])
				sb.WriteByte(' ')
			}
			p := NewTag("p")
			p.AppendChild(NewContent(sb.String()))
			pages[i].AppendChild(p)
		}
	}
	return pages
}
