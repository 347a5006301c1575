package htmlx

import (
	"reflect"
	"testing"
)

// collect drains the tokenizer.
func collect(src string) []token {
	z := &tokenizer{src: src}
	var out []token
	for z.next() {
		out = append(out, z.tok)
	}
	return out
}

func kinds(toks []token) []tokenKind {
	out := make([]tokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.kind
	}
	return out
}

func TestTokenizerBasicStream(t *testing.T) {
	toks := collect(`<div>text</div>`)
	want := []tokenKind{tokStartTag, tokText, tokEndTag}
	if !reflect.DeepEqual(kinds(toks), want) {
		t.Fatalf("kinds = %v, want %v", kinds(toks), want)
	}
	if toks[0].data != "div" || toks[1].data != "text" || toks[2].data != "div" {
		t.Errorf("token data wrong: %+v", toks)
	}
}

func TestTokenizerSelfClosing(t *testing.T) {
	toks := collect(`<br/><hr />`)
	if len(toks) != 2 {
		t.Fatalf("tokens = %d", len(toks))
	}
	for _, tok := range toks {
		if tok.kind != tokSelfClosingTag {
			t.Errorf("kind = %v, want self-closing", tok.kind)
		}
	}
}

func TestTokenizerAttributeForms(t *testing.T) {
	toks := collect(`<input type="text" value='v' checked name=q>`)
	if len(toks) != 1 {
		t.Fatalf("tokens = %d", len(toks))
	}
	want := []attr{
		{"type", "text"}, {"value", "v"}, {"checked", ""}, {"name", "q"},
	}
	if !reflect.DeepEqual(toks[0].attrs, want) {
		t.Errorf("attrs = %+v, want %+v", toks[0].attrs, want)
	}
}

func TestTokenizerAttributeNameCaseFolded(t *testing.T) {
	toks := collect(`<a HREF="/x" TITLE=y>`)
	if toks[0].attrs[0].key != "href" || toks[0].attrs[1].key != "title" {
		t.Errorf("attrs = %+v", toks[0].attrs)
	}
}

func TestTokenizerComment(t *testing.T) {
	toks := collect(`a<!-- hidden <div> -->b`)
	want := []tokenKind{tokText, tokComment, tokText}
	if !reflect.DeepEqual(kinds(toks), want) {
		t.Fatalf("kinds = %v", kinds(toks))
	}
	if toks[1].data != " hidden <div> " {
		t.Errorf("comment data = %q", toks[1].data)
	}
}

func TestTokenizerUnterminatedComment(t *testing.T) {
	toks := collect(`<!-- never ends`)
	if len(toks) != 1 || toks[0].kind != tokComment {
		t.Fatalf("tokens = %+v", toks)
	}
}

func TestTokenizerDoctype(t *testing.T) {
	toks := collect(`<!DOCTYPE html><p>x</p>`)
	if toks[0].kind != tokDoctype {
		t.Fatalf("kinds = %v", kinds(toks))
	}
}

func TestTokenizerProcessingInstruction(t *testing.T) {
	toks := collect(`<?xml version="1.0"?><p>x</p>`)
	if toks[0].kind != tokDoctype { // PIs share the declaration bucket
		t.Fatalf("kinds = %v", kinds(toks))
	}
}

func TestTokenizerRawText(t *testing.T) {
	toks := collect(`<script>if (a<b) { x() }</script><p>after</p>`)
	want := []tokenKind{tokStartTag, tokText, tokEndTag, tokStartTag, tokText, tokEndTag}
	if !reflect.DeepEqual(kinds(toks), want) {
		t.Fatalf("kinds = %v", kinds(toks))
	}
	if toks[1].data != "if (a<b) { x() }" {
		t.Errorf("raw text = %q", toks[1].data)
	}
}

func TestTokenizerRawTextCaseInsensitiveCloser(t *testing.T) {
	toks := collect(`<STYLE>p{}</StYlE>done`)
	if toks[1].data != "p{}" {
		t.Errorf("style body = %q", toks[1].data)
	}
	last := toks[len(toks)-1]
	if last.kind != tokText || last.data != "done" {
		t.Errorf("trailing text lost: %+v", last)
	}
}

func TestTokenizerEmptyRawText(t *testing.T) {
	toks := collect(`<script></script><p>x`)
	// No empty text token between script start and end.
	for _, tok := range toks {
		if tok.kind == tokText && tok.data == "" {
			t.Errorf("empty text token emitted")
		}
	}
}

func TestTokenizerLiteralAngleBrackets(t *testing.T) {
	toks := collect(`3 < 5 and 5 > 3`)
	if len(toks) != 1 || toks[0].kind != tokText {
		t.Fatalf("tokens = %+v", toks)
	}
	if toks[0].data != "3 < 5 and 5 > 3" {
		t.Errorf("text = %q", toks[0].data)
	}
}

func TestTokenizerEntityInText(t *testing.T) {
	// The tokenizer hands references through raw; the tree builder
	// decodes them (so the pooled parser can decode into its arena).
	toks := collect(`<p>a &amp; b</p>`)
	if toks[1].data != "a &amp; b" {
		t.Errorf("text = %q", toks[1].data)
	}
	if tree := Parse(`<p>a &amp; b</p>`); tree.Children[0].Children[0].Content != "a & b" {
		t.Errorf("tree text = %q", tree.Children[0].Children[0].Content)
	}
}

func TestTokenizerEndTagWithAttributesIgnored(t *testing.T) {
	toks := collect(`<div></div class="junk">`)
	if len(toks) != 2 || toks[1].kind != tokEndTag || toks[1].data != "div" {
		t.Fatalf("tokens = %+v", toks)
	}
}

func TestTokenizerTruncatedTagAtEOF(t *testing.T) {
	for _, src := range []string{"<div", "<div cl", `<div class="x`, "</di", "<"} {
		toks := collect(src)
		_ = toks // must simply not hang or panic
	}
}

func TestTokenizerTagNameWithDigitsAndDashes(t *testing.T) {
	toks := collect(`<h1>x</h1><my-widget>y</my-widget>`)
	if toks[0].data != "h1" {
		t.Errorf("h1 parsed as %q", toks[0].data)
	}
	if toks[3].data != "my-widget" {
		t.Errorf("custom element parsed as %q", toks[3].data)
	}
}
