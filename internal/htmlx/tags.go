package htmlx

import "thor/internal/tagtree"

// tagInfo is everything the tree builder needs to know about one tag
// name. The tokenizer resolves each start tag's name to its entry once;
// the builder keeps the entries of the open elements on a stack parallel
// to them, so implicit closing and the void and raw-text checks read
// fields instead of looking names up.
type tagInfo struct {
	// closes is the set of open tags an incoming one implicitly closes.
	closes closeSet
	// bit is the tag's own member of closeSet, 0 when no tag closes it.
	bit   closeSet
	flags tagFlags
}

// closeSet is a set of closable tags, one bit each (closableTags).
type closeSet uint16

type tagFlags uint8

const (
	// scopeStop tags are where implicit closing stops: a new <li> inside
	// a nested <ul> must not close the outer <li>.
	scopeStop tagFlags = 1 << iota
	// inline formatting tags are looked through by implicit closing.
	inline
	// void tags have no end tag and never hold children.
	void
	// rawText tags swallow their content up to their end tag.
	rawText
	// dropText tags hold text that is not part of the page model.
	dropText
)

// closableTags are the tags some incoming tag implicitly closes, in bit
// order.
var closableTags = [...]string{
	"li", "dt", "dd", "tr", "td", "th", "thead", "tbody", "tfoot",
	"option", "optgroup", "p",
}

// impliedEnd maps a tag to the open tags it implicitly closes when it
// appears. These rules approximate HTML Tidy's repairs for the tag soup
// commonly produced by deep-web template engines (unclosed <li>, <tr>,
// <td>, <p>, <option>, and friends). Block-level elements close an open
// paragraph.
var impliedEnd = [...]struct {
	tags   []string
	closes []string
}{
	{[]string{"li"}, []string{"li"}},
	{[]string{"dt", "dd"}, []string{"dt", "dd"}},
	{[]string{"tr"}, []string{"tr", "td", "th"}},
	{[]string{"td", "th"}, []string{"td", "th"}},
	{[]string{"thead", "tbody", "tfoot"}, []string{"thead", "tbody", "tfoot", "tr", "td", "th"}},
	{[]string{"option"}, []string{"option"}},
	{[]string{"optgroup"}, []string{"option", "optgroup"}},
	{[]string{"p", "div", "ul", "ol", "table", "h1", "h2", "h3", "h4", "h5",
		"h6", "blockquote", "pre", "form", "hr"}, []string{"p"}},
}

// tagFlagNames lists the tags carrying each flag. Void tags come from
// tagtree, which renders them without end tags.
var tagFlagNames = [...]struct {
	flag tagFlags
	tags []string
}{
	{scopeStop, []string{"html", "body", "div", "table", "ul", "ol", "dl",
		"select", "form", "td", "th", "object", "fieldset"}},
	{inline, []string{"a", "b", "i", "em", "strong", "span", "font", "u",
		"small", "big", "code", "tt", "sub", "sup"}},
	{void, tagtree.VoidTags()},
	{rawText, []string{"script", "style", "textarea", "title"}},
	{dropText, []string{"script", "style"}},
}

// tagTable holds an entry for every tag with a rule, open-addressed by
// tagHash with linear probing; every other name resolves to unknownTag,
// which has none. It has room to spare: a lookup of a name without an
// entry stops at the first empty slot, a probe or two away.
var tagTable = func() (t [128]struct {
	name string
	info *tagInfo
}) {
	entry := func(name string) *tagInfo {
		for h := tagHash(name); ; h++ {
			slot := &t[h%uint32(len(t))]
			if slot.info == nil {
				slot.name, slot.info = name, &tagInfo{}
			}
			if slot.name == name {
				return slot.info
			}
		}
	}
	bits := make(map[string]closeSet, len(closableTags))
	for i, name := range closableTags {
		bits[name] = 1 << i
		entry(name).bit = 1 << i
	}
	for _, rule := range impliedEnd {
		for _, name := range rule.tags {
			for _, c := range rule.closes {
				entry(name).closes |= bits[c]
			}
		}
	}
	for _, f := range tagFlagNames {
		for _, name := range f.tags {
			entry(name).flags |= f.flag
		}
	}
	return t
}()

var unknownTag tagInfo

// tagHash is FNV-1a over the name's bytes.
func tagHash(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h
}

// lookupTag resolves a lowercase tag name to its entry.
func lookupTag(name string) *tagInfo {
	for h := tagHash(name); ; h++ {
		slot := &tagTable[h%uint32(len(tagTable))]
		if slot.info == nil {
			return &unknownTag
		}
		if slot.name == name {
			return slot.info
		}
	}
}
