package tagtree

import (
	"reflect"
	"slices"
	"strings"
	"testing"
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
		div.EachContentToken(func(tok string) { want[tok] = true })
		if got := div.DistinctTermsIn(seen); got != len(want) {
			t.Errorf("%q: DistinctTermsIn = %d, want %d distinct lowercase tokens", parts, got, len(want))
		}
	}
}
