package htmlx

import (
	"math/rand"
	"strings"
	"testing"

	"thor/internal/tagtree"
)

// impliedEndRef, scopeStopRef and inlineTagsRef are the parser's rule maps
// as they stood before the tag table, kept as the table's reference.
var impliedEndRef = map[string]map[string]bool{
	"li":       {"li": true},
	"dt":       {"dt": true, "dd": true},
	"dd":       {"dt": true, "dd": true},
	"tr":       {"tr": true, "td": true, "th": true},
	"td":       {"td": true, "th": true},
	"th":       {"td": true, "th": true},
	"thead":    {"thead": true, "tbody": true, "tfoot": true, "tr": true, "td": true, "th": true},
	"tbody":    {"thead": true, "tbody": true, "tfoot": true, "tr": true, "td": true, "th": true},
	"tfoot":    {"thead": true, "tbody": true, "tfoot": true, "tr": true, "td": true, "th": true},
	"option":   {"option": true},
	"optgroup": {"option": true, "optgroup": true},
	"p":        {"p": true},
	"div":      {"p": true}, "ul": {"p": true}, "ol": {"p": true},
	"table": {"p": true}, "h1": {"p": true}, "h2": {"p": true},
	"h3": {"p": true}, "h4": {"p": true}, "h5": {"p": true},
	"h6": {"p": true}, "blockquote": {"p": true}, "pre": {"p": true},
	"form": {"p": true}, "hr": {"p": true},
}

var scopeStopRef = map[string]bool{
	"html": true, "body": true, "div": true, "table": true, "ul": true,
	"ol": true, "dl": true, "select": true, "form": true, "td": true,
	"th": true, "object": true, "fieldset": true,
}

var inlineTagsRef = map[string]bool{
	"a": true, "b": true, "i": true, "em": true, "strong": true,
	"span": true, "font": true, "u": true, "small": true, "big": true,
	"code": true, "tt": true, "sub": true, "sup": true,
}

var rawTextTagsRef = map[string]bool{
	"script": true, "style": true, "textarea": true, "title": true,
}

// TestTagTableMatchesRuleMaps checks every table entry, and a name with
// no entry, against the rule maps: implied ends as bit sets, the flags,
// and voidness as tagtree reports it.
func TestTagTableMatchesRuleMaps(t *testing.T) {
	names := map[string]bool{"blink": true, "x-y": true}
	entries := 0
	for _, slot := range tagTable {
		if slot.info != nil {
			names[slot.name] = true
			entries++
		}
	}
	// A lookup stops at the first empty slot, so the table must keep
	// room to spare.
	if entries > len(tagTable)/2 {
		t.Errorf("tag table holds %d entries in %d slots; grow it", entries, len(tagTable))
	}
	for name, closes := range impliedEndRef {
		names[name] = true
		for c := range closes {
			names[c] = true
		}
	}
	for name := range names {
		info := lookupTag(name)
		for other := range names {
			want := impliedEndRef[name][other]
			if got := info.closes&lookupTag(other).bit != 0; got != want {
				t.Errorf("<%s> closes <%s>: %v, want %v", name, other, got, want)
			}
		}
		for _, f := range []struct {
			flag tagFlags
			want bool
		}{
			{scopeStop, scopeStopRef[name]},
			{inline, inlineTagsRef[name]},
			{void, tagtree.IsVoidTag(name)},
			{rawText, rawTextTagsRef[name]},
			{dropText, name == "script" || name == "style"},
		} {
			if got := info.flags&f.flag != 0; got != f.want {
				t.Errorf("<%s> flag %b: %v, want %v", name, f.flag, got, f.want)
			}
		}
	}
	for _, name := range tagtree.VoidTags() {
		if lookupTag(name).flags&void == 0 {
			t.Errorf("void <%s> has no void flag", name)
		}
	}
}

// isCollapsedRef is isCollapsed as it was before the byte-class table.
func isCollapsedRef(s string) bool {
	if s == "" {
		return true
	}
	if s[0] == ' ' {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == ' ':
			if i+1 == len(s) || s[i+1] == ' ' {
				return false
			}
		case c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v':
			return false
		case c == 0xC2 || c == 0xE1 || c == 0xE2 || c == 0xE3:
			return false
		}
	}
	return true
}

// TestIsCollapsedMatchesReference compares the table scan with the
// branchy scan it replaced on every string of up to five bytes over an
// alphabet of the byte classes, on random strings over all bytes, and
// checks that an accepted string is its own collapsed form.
func TestIsCollapsedMatchesReference(t *testing.T) {
	alphabet := []byte{'a', ' ', '\t', '\v', 0xC2, 0xC3, 0xE3, 0xE4}
	var gen func(prefix []byte)
	gen = func(prefix []byte) {
		s := string(prefix)
		if got, want := isCollapsed(s), isCollapsedRef(s); got != want {
			t.Fatalf("isCollapsed(%q) = %v, want %v", s, got, want)
		}
		if len(prefix) == 5 {
			return
		}
		for _, c := range alphabet {
			gen(append(prefix, c))
		}
	}
	gen(nil)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		b := make([]byte, rng.Intn(24))
		for j := range b {
			if rng.Intn(3) == 0 {
				b[j] = byte(rng.Intn(256))
			} else {
				b[j] = "ab  c"[rng.Intn(5)]
			}
		}
		s := string(b)
		got := isCollapsed(s)
		if want := isCollapsedRef(s); got != want {
			t.Fatalf("isCollapsed(%q) = %v, want %v", s, got, want)
		}
		if got && strings.Join(strings.Fields(s), " ") != s {
			t.Fatalf("isCollapsed(%q) accepted a string collapsing changes", s)
		}
	}
}
