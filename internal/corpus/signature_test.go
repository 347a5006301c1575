package corpus

import (
	"reflect"
	"testing"
	"unsafe"

	"thor/internal/stem"
)

var signaturePages = []string{
	`<html><body><table><tr><td>Answer one</td></tr><tr><td>Answer two</td></tr></table></body></html>`,
	`<html><body><div class="result"><p>Searching finds nothing</p></div><ul><li>apples</li><li>apple</li></ul></body></html>`,
	`<html><head><title>T</title></head><body><form><input><select><option>a</option></select></form></body></html>`,
}

// TestSignatureScratchMatchesPage pins the scratch-backed signatures to
// the cached Page ones, and exercises reuse: the same scratch serves
// differently-shaped pages and both signature kinds back to back, so any
// leftover entry from a previous call would show up as a mismatch.
func TestSignatureScratchMatchesPage(t *testing.T) {
	s := NewSignatureScratch()
	for round := 0; round < 2; round++ {
		for i, html := range signaturePages {
			p := &Page{HTML: html}
			tree := p.Tree()
			if got, want := s.TagCounts(tree), p.TagSignature(); !reflect.DeepEqual(got, want) {
				t.Errorf("round %d page %d: scratch tag signature %v, Page %v", round, i, got, want)
			}
			if got, want := s.TermCounts(tree), p.ContentSignature(); !reflect.DeepEqual(got, want) {
				t.Errorf("round %d page %d: scratch term signature %v, Page %v", round, i, got, want)
			}
		}
	}
}

// TestSignatureScratchStemMemo checks the scratch's memoized stems
// against stemming every occurrence, on capitalized and repeated
// spellings with a scratch reused across pages whose text buffers are
// overwritten between calls, as request bodies are.
func TestSignatureScratchStemMemo(t *testing.T) {
	s := NewSignatureScratch()
	buf := []byte(`<html><body><p>Running RUNNING running runs Runner 42 Ünïcode ünïcode</p><p>Apples APPLE apple</p></body></html>`)
	for round := 0; round < 3; round++ {
		// The page's text is a view of buf, as a request body's is.
		p := &Page{HTML: unsafe.String(&buf[0], len(buf))}
		want := make(map[string]int)
		for _, tok := range p.Tree().ContentTokens() {
			want[stem.Stem(tok)]++
		}
		if got := s.TermCounts(p.Tree()); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: memo counts %v, want %v", round, got, want)
		}
		for i := range buf {
			if buf[i] == 'u' {
				buf[i] = 'a'
			}
		}
	}
}

// TestTermSignatureOwnsItsMap checks that TermSignature's maps outlive
// later calls, which reuse the pooled counter, and equal stemming every
// occurrence.
func TestTermSignatureOwnsItsMap(t *testing.T) {
	var got, want []map[string]int
	for round := 0; round < 2; round++ {
		for _, html := range signaturePages {
			tree := (&Page{HTML: html}).Tree()
			w := make(map[string]int)
			for _, tok := range tree.ContentTokens() {
				w[stem.Stem(tok)]++
			}
			got, want = append(got, TermSignature(tree)), append(want, w)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("term signatures %v, want %v", got, want)
	}
}
