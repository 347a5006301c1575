// Package htmlx is a from-scratch, forgiving HTML parser that turns
// real-world (often malformed) markup into tag trees. It plays the role of
// the HTML Tidy pre-processing step of THOR (Section 4 of the paper): pages
// are cleaned and normalized before any analysis. The parser lowercases tag
// and attribute names, closes unclosed elements, drops mismatched end tags,
// decodes character references, and skips whitespace-only text.
package htmlx

import "strings"

// tokenKind identifies the kind of a lexical token.
type tokenKind int

const (
	tokText tokenKind = iota
	tokStartTag
	tokEndTag
	tokSelfClosingTag
	tokComment
	tokDoctype
)

// token is one lexical unit of an HTML document. Text and attribute
// values are raw source slices — character references are decoded by the
// tree builder, which owns where the decoded bytes live.
type token struct {
	kind  tokenKind
	data  string // tag name (lowercase) or text content
	attrs []attr
	// info is a start tag's tag-table entry.
	info *tagInfo
	// verbatim marks text from a raw-text element (script, style,
	// textarea, title), whose character references are never decoded.
	verbatim bool
}

type attr struct{ key, val string }

// tokenizer scans HTML text into tokens. Raw-text elements (script, style,
// textarea, title) swallow their content up to the matching end tag, as in
// the HTML5 tokenization rules.
type tokenizer struct {
	src string
	pos int
	// rawTag, when non-empty, means the tokenizer is inside a raw-text
	// element and must scan text until "</rawTag".
	rawTag string
	// attrs is the reusable attribute scratch for startTag. Each start-tag
	// token's attrs slice aliases it and is valid only until the next call
	// to next — the parser copies attributes into the tree immediately.
	attrs []attr
	// tok is the token the last successful next scanned.
	tok token
}

// reset re-aims the tokenizer at a new document, retaining the attribute
// scratch capacity.
func (z *tokenizer) reset(src string) {
	z.src = src
	z.pos = 0
	z.rawTag = ""
	z.attrs = z.attrs[:0]
	z.tok = token{}
}

// next scans the next token into z.tok and reports whether there was
// one; at end of input it returns false.
func (z *tokenizer) next() bool {
	if z.pos >= len(z.src) {
		return false
	}
	if z.rawTag != "" {
		return z.rawText()
	}
	if z.src[z.pos] == '<' {
		if z.markup() {
			return true
		}
		// A lone '<' that does not begin markup is literal text.
	}
	return z.text()
}

// text scans character data up to the next '<' that begins markup.
func (z *tokenizer) text() bool {
	start := z.pos
	for z.pos < len(z.src) {
		i := strings.IndexByte(z.src[z.pos:], '<')
		if i < 0 {
			z.pos = len(z.src)
			break
		}
		z.pos += i
		if z.beginsMarkup() {
			break
		}
		z.pos++ // literal '<'
	}
	raw := z.src[start:z.pos]
	z.tok = token{kind: tokText, data: raw}
	return true
}

// beginsMarkup reports whether the '<' at z.pos starts a tag, comment, or
// declaration rather than literal text.
func (z *tokenizer) beginsMarkup() bool {
	if z.pos+1 >= len(z.src) {
		return false
	}
	c := z.src[z.pos+1]
	return isAlpha(c) || c == '/' || c == '!' || c == '?'
}

// rawText scans the contents of a raw-text element up to its end tag.
func (z *tokenizer) rawText() bool {
	i := indexCloseTag(z.src[z.pos:], z.rawTag)
	if i < 0 {
		// Unterminated raw element: consume the rest of the input.
		text := z.src[z.pos:]
		z.pos = len(z.src)
		z.rawTag = ""
		z.tok = token{kind: tokText, data: text, verbatim: true}
		return true
	}
	text := z.src[z.pos : z.pos+i]
	z.pos += i
	z.rawTag = ""
	if text == "" {
		// Nothing between start and end tag; emit the end tag directly.
		return z.next()
	}
	z.tok = token{kind: tokText, data: text, verbatim: true}
	return true
}

// indexCloseTag returns the index of the first case-insensitive
// occurrence of "</"+tag in s, or -1. Tag names are ASCII, so an
// ASCII-folding byte scan suffices — and unlike lowercasing a copy of the
// remaining input, it allocates nothing and cannot mis-map indices when
// the raw content holds characters whose case form changes byte length.
func indexCloseTag(s, tag string) int {
	for i := 0; i+2+len(tag) <= len(s); i++ {
		if s[i] != '<' || s[i+1] != '/' {
			continue
		}
		match := true
		for j := 0; j < len(tag); j++ {
			if lowerASCII(s[i+2+j]) != tag[j] {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// markup scans a tag, comment, or declaration starting at '<'. It returns
// ok=false when the text after '<' cannot be markup.
func (z *tokenizer) markup() bool {
	s := z.src
	p := z.pos
	if p+1 >= len(s) {
		return false
	}
	switch {
	case strings.HasPrefix(s[p:], "<!--"):
		end := strings.Index(s[p+4:], "-->")
		if end < 0 {
			z.pos = len(s)
			z.tok = token{kind: tokComment, data: s[p+4:]}
			return true
		}
		z.pos = p + 4 + end + 3
		z.tok = token{kind: tokComment, data: s[p+4 : p+4+end]}
		return true
	case s[p+1] == '!' || s[p+1] == '?':
		end := strings.IndexByte(s[p:], '>')
		if end < 0 {
			z.pos = len(s)
			z.tok = token{kind: tokDoctype, data: s[p:]}
			return true
		}
		z.pos = p + end + 1
		z.tok = token{kind: tokDoctype, data: s[p : p+end+1]}
		return true
	case s[p+1] == '/':
		return z.endTag()
	case isAlpha(s[p+1]):
		return z.startTag()
	default:
		return false
	}
}

func (z *tokenizer) endTag() bool {
	s := z.src
	p := z.pos + 2
	start := p
	for p < len(s) && isNameByte(s[p]) {
		p++
	}
	name := strings.ToLower(s[start:p])
	// Skip to '>' (attributes on end tags are ignored, per HTML5).
	for p < len(s) && s[p] != '>' {
		p++
	}
	if p < len(s) {
		p++
	}
	z.pos = p
	z.tok = token{kind: tokEndTag, data: name}
	return true
}

func (z *tokenizer) startTag() bool {
	s := z.src
	p := z.pos + 1
	start := p
	for p < len(s) && isNameByte(s[p]) {
		p++
	}
	name := strings.ToLower(s[start:p])
	attrs := z.attrs[:0]
	selfClosing := false
	for p < len(s) {
		for p < len(s) && isSpace(s[p]) {
			p++
		}
		if p >= len(s) {
			break
		}
		if s[p] == '>' {
			p++
			break
		}
		if s[p] == '/' {
			p++
			if p < len(s) && s[p] == '>' {
				selfClosing = true
				p++
				break
			}
			continue
		}
		// Attribute name.
		aStart := p
		for p < len(s) && !isSpace(s[p]) && s[p] != '=' && s[p] != '>' && s[p] != '/' {
			p++
		}
		key := strings.ToLower(s[aStart:p])
		val := ""
		for p < len(s) && isSpace(s[p]) {
			p++
		}
		if p < len(s) && s[p] == '=' {
			p++
			for p < len(s) && isSpace(s[p]) {
				p++
			}
			if p < len(s) && (s[p] == '"' || s[p] == '\'') {
				quote := s[p]
				p++
				vStart := p
				for p < len(s) && s[p] != quote {
					p++
				}
				val = s[vStart:p]
				if p < len(s) {
					p++
				}
			} else {
				vStart := p
				for p < len(s) && !isSpace(s[p]) && s[p] != '>' {
					p++
				}
				val = s[vStart:p]
			}
		}
		if key != "" {
			attrs = append(attrs, attr{key: key, val: val})
		}
	}
	z.pos = p
	z.attrs = attrs
	info := lookupTag(name)
	kind := tokStartTag
	if selfClosing {
		kind = tokSelfClosingTag
	} else if info.flags&rawText != 0 {
		z.rawTag = name
	}
	z.tok = token{kind: kind, data: name, attrs: attrs, info: info}
	return true
}

func isAlpha(c byte) bool {
	return ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isNameByte(c byte) bool {
	return isAlpha(c) || ('0' <= c && c <= '9') || c == '-' || c == ':' || c == '_'
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}
