package corpus

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// PageStream is the decoder of the persisted corpus format: a
// token-level reader that hands out one collection at a time and one
// page at a time straight off the gzipped JSON document, never buffering
// the whole corpus (a paper-scale capture does not fit in memory that
// way). NextCollection moves to the next collection that holds a page;
// Next then yields that collection's pages in their on-disk order and
// returns io.EOF at its end, so the stream is the Source of one
// collection at a time.
//
// The stream reads the document to its end and the gzip stream to its
// checksum, so a truncated or corrupt file ends in an error, never in a
// clean io.EOF after a short read. After any error the stream is spent
// and keeps returning that error.
type PageStream struct {
	dec    *json.Decoder
	in     *valueCap // between the gzip stream and dec
	closer io.Closer // underlying file when opened via OpenStream

	inPages bool  // inside the current collection's pages array
	err     error // sticky: io.EOF once the document is exhausted, or the first failure
}

// MaxValueBytes caps what the stream reads to decode any one JSON value
// (a page, a collection's metadata, a value it skips). A stream that
// meets a larger value fails, so a small gzipped file cannot make it
// allocate without bound: the decoder buffers a value whole before
// decoding it. Probing and /extract take pages of up to 4 MiB; the cap
// leaves room for JSON's escaping of markup, which writes each '<', '>'
// and '&' as six bytes.
const MaxValueBytes = 16 << 20

// errValueTooLarge is the error of a stream that met a value over
// MaxValueBytes.
var errValueTooLarge = fmt.Errorf("a value is larger than %d MiB", MaxValueBytes>>20)

// valueCap is the reader the stream's JSON decoder reads from. Before
// each decoder call the stream grants it MaxValueBytes; once a call has
// read them all, the next read fails, and so does every later one.
type valueCap struct {
	r        io.Reader
	left     int64
	exceeded bool
}

func (c *valueCap) Read(p []byte) (int, error) {
	if c.left <= 0 || c.exceeded {
		c.exceeded = true
		return 0, errValueTooLarge
	}
	if int64(len(p)) > c.left {
		p = p[:c.left]
	}
	n, err := c.r.Read(p)
	c.left -= int64(n)
	return n, err
}

// ReadStream starts streaming a corpus written by Write from r. The
// document header (the format version) is validated eagerly; collections
// and pages are decoded on demand. The version field must precede the
// collections, and a collection's site_id and name must precede its
// pages, which is how Write lays the document out; metadata after a
// collection's pages is skipped.
func ReadStream(r io.Reader) (*PageStream, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("corpus: decompress: %w", err)
	}
	in := &valueCap{r: gz}
	s := &PageStream{dec: json.NewDecoder(in), in: in}
	if err := s.readHeader(); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenStream opens path and streams the corpus persisted there. The
// caller owns the stream and must Close it; Close also closes the file.
func OpenStream(path string) (*PageStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	s, err := ReadStream(f)
	if err != nil {
		//thorlint:allow no-unchecked-error closing a read-only file cannot lose data
		f.Close()
		return nil, fmt.Errorf("corpus: reading %s: %w", path, err)
	}
	s.closer = f
	return s, nil
}

// readHeader consumes the document up to the opening '[' of the
// collections array, validating the format version on the way. A
// document without collections is read to its end.
func (s *PageStream) readHeader() error {
	if err := s.expectDelim('{'); err != nil {
		return err
	}
	version := 0 // stays 0 until a valid version is read
	inArray, err := s.object("header", func(key string) (bool, error) {
		switch key {
		case "version":
			var v int
			if err := s.decode(&v); err != nil {
				return false, err
			}
			if v != persistVersion {
				return false, fmt.Errorf("corpus: unsupported format version %d", v)
			}
			version = v
			return false, nil
		case "collections":
			if version == 0 {
				return false, fmt.Errorf("corpus: decode: collections precede the version header")
			}
			null, err := s.startArray()
			return !null, err // a null collections list holds nothing; read on
		}
		return false, s.skipValue()
	})
	if err != nil || inArray {
		return err
	}
	if version == 0 {
		return fmt.Errorf("corpus: unsupported format version %d", 0)
	}
	if s.err = s.finish(); s.err != io.EOF {
		return s.err
	}
	return nil
}

// NextCollection moves to the next collection that holds at least one
// page and returns its site id and name, or io.EOF once the document is
// exhausted. Pages of the previous collection that Next has not yielded
// are skipped; collections without pages are never reported.
func (s *PageStream) NextCollection() (siteID int, name string, err error) {
	if s.err != nil {
		return 0, "", s.err
	}
	if siteID, name, err = s.nextCollection(); err != nil {
		s.err = err
	}
	return siteID, name, err
}

func (s *PageStream) nextCollection() (siteID int, name string, err error) {
	if s.inPages {
		for s.more() {
			if err := s.skipValue(); err != nil {
				return 0, "", err
			}
		}
		if err := s.endPages(); err != nil {
			return 0, "", err
		}
	}
	for s.more() {
		if err := s.expectDelim('{'); err != nil {
			return 0, "", err
		}
		// Read the collection's keys up to its first page, or through its
		// closing '}' when it holds none.
		s.inPages, err = s.object("collection", func(key string) (bool, error) {
			switch key {
			case "site_id":
				return false, s.decode(&siteID)
			case "name":
				return false, s.decode(&name)
			case "pages":
				null, err := s.startArray()
				if err != nil || null {
					return false, err
				}
				if s.more() {
					return true, nil
				}
				return false, s.expectDelim(']')
			}
			return false, s.skipValue()
		})
		if err != nil || s.inPages {
			return siteID, name, err
		}
		siteID, name = 0, ""
	}
	if err := s.expectDelim(']'); err != nil {
		return 0, "", err
	}
	if _, err := s.object("document", nil); err != nil {
		return 0, "", err
	}
	return 0, "", s.finish()
}

// Next yields the current collection's next page, or io.EOF at the end
// of the collection (and before the first NextCollection). It makes the
// stream a Source of the current collection's pages.
func (s *PageStream) Next() (*Page, error) {
	if s.err != nil {
		return nil, s.err
	}
	if !s.inPages {
		return nil, io.EOF
	}
	if !s.more() {
		if s.err = s.endPages(); s.err != nil {
			return nil, s.err
		}
		return nil, io.EOF
	}
	var pj pageJSON
	if s.err = s.decode(&pj); s.err != nil {
		return nil, s.err
	}
	if pj.Class < 0 || pj.Class >= int(NumClasses) {
		s.err = fmt.Errorf("corpus: page %q has invalid class %d", pj.URL, pj.Class)
		return nil, s.err
	}
	return &Page{
		SiteID: pj.SiteID, URL: pj.URL, Query: pj.Query,
		Class: Class(pj.Class), HTML: pj.HTML,
	}, nil
}

// endPages consumes the closing ']' of the current collection's pages and
// the rest of the collection.
func (s *PageStream) endPages() error {
	s.inPages = false
	if err := s.expectDelim(']'); err != nil {
		return err
	}
	_, err := s.object("collection", nil)
	return err
}

// object reads the keys of an object through its closing '}', handing
// each to field, which consumes the key's value or stops the walk there
// by returning true; a nil field skips every value. It reports whether
// field stopped the walk.
func (s *PageStream) object(what string, field func(key string) (bool, error)) (stopped bool, err error) {
	for {
		tok, err := s.token()
		if err != nil {
			return false, fmt.Errorf("corpus: decode: %w", err)
		}
		if d, ok := tok.(json.Delim); ok && d == '}' {
			return false, nil
		}
		key, ok := tok.(string)
		if !ok {
			return false, fmt.Errorf("corpus: decode: unexpected token %v in %s", tok, what)
		}
		if field == nil {
			err = s.skipValue()
		} else {
			stopped, err = field(key)
		}
		if stopped || err != nil {
			return stopped, err
		}
	}
}

// finish checks the end of the input after the document's closing '}':
// only white space may follow, and the gzip stream must end whole — the
// reader verifies its checksum and length only when it reaches the end.
// It returns io.EOF when all is well.
func (s *PageStream) finish() error {
	tok, err := s.token()
	switch {
	case err == io.EOF:
		return io.EOF
	case err != nil:
		return fmt.Errorf("corpus: decode: %w", err)
	default:
		return fmt.Errorf("corpus: decode: unexpected token %v after the document", tok)
	}
}

// Close releases the underlying file when the stream was opened with
// OpenStream; for ReadStream over a caller-owned reader it is a no-op.
func (s *PageStream) Close() error {
	if s.closer == nil {
		return nil
	}
	c := s.closer
	s.closer = nil
	if err := c.Close(); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	return nil
}

// startArray consumes the start of an array value. The encoder writes a
// nil slice as JSON null, which holds nothing.
func (s *PageStream) startArray() (null bool, err error) {
	tok, err := s.token()
	if err != nil {
		return false, fmt.Errorf("corpus: decode: %w", err)
	}
	if tok == nil {
		return true, nil
	}
	if d, ok := tok.(json.Delim); ok && d == '[' {
		return false, nil
	}
	return false, fmt.Errorf("corpus: decode: got token %v, want an array", tok)
}

// expectDelim consumes one token and verifies it is the given delimiter.
func (s *PageStream) expectDelim(want json.Delim) error {
	tok, err := s.token()
	if err != nil {
		return fmt.Errorf("corpus: decode: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != want {
		return fmt.Errorf("corpus: decode: got token %v, want %q", tok, want)
	}
	return nil
}

// decode consumes the next value into v.
func (s *PageStream) decode(v any) error {
	s.in.left = MaxValueBytes
	if err := s.dec.Decode(v); err != nil {
		return fmt.Errorf("corpus: decode: %w", err)
	}
	return nil
}

// token consumes the next token.
func (s *PageStream) token() (json.Token, error) {
	s.in.left = MaxValueBytes
	return s.dec.Token()
}

// more reports whether the current array or object has another element.
func (s *PageStream) more() bool {
	s.in.left = MaxValueBytes
	return s.dec.More()
}

// skipValue consumes and discards the value following an unknown key.
func (s *PageStream) skipValue() error {
	var raw json.RawMessage
	return s.decode(&raw)
}
