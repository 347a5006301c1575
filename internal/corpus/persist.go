package corpus

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"

	"thor/internal/atomicfile"
)

// The on-disk corpus format: one gzipped JSON document holding every
// collection with its pages' raw HTML and labels. Trees and signatures are
// reconstructed lazily after loading. The format lets an expensive probing
// run (or a capture of real deep-web pages) be replayed across processes;
// PageStream reads it back one collection and one page at a time.

type pageJSON struct {
	SiteID int    `json:"site_id"`
	URL    string `json:"url"`
	Query  string `json:"query"`
	Class  int    `json:"class"`
	HTML   string `json:"html"`
}

type collectionJSON struct {
	SiteID int        `json:"site_id"`
	Name   string     `json:"name"`
	Pages  []pageJSON `json:"pages"`
}

type corpusJSON struct {
	Version     int              `json:"version"`
	Collections []collectionJSON `json:"collections"`
}

const persistVersion = 1

// Write serializes the corpus to w as gzipped JSON. It refuses, with an
// error and before writing anything, a corpus holding a page whose JSON
// value, with the comma before it, would be larger than MaxValueBytes:
// PageStream could not read it back. The JSON escapes '<', '>' and '&'
// as six bytes each, so a page of markup grows by up to six times.
func (c *Corpus) Write(w io.Writer) error {
	doc := corpusJSON{Version: persistVersion}
	var size byteCounter
	enc := json.NewEncoder(&size)
	for _, col := range c.Collections {
		cj := collectionJSON{SiteID: col.SiteID, Name: col.Name}
		for _, p := range col.Pages {
			pj := pageJSON{
				SiteID: p.SiteID, URL: p.URL, Query: p.Query,
				Class: int(p.Class), HTML: p.HTML,
			}
			// Encode ends the value with a newline, which stands in
			// for the comma.
			size = 0
			if err := enc.Encode(&pj); err != nil {
				return fmt.Errorf("corpus: encode: %w", err)
			}
			if size > MaxValueBytes {
				return fmt.Errorf("corpus: page %q of site %d encodes to %d bytes, more than the %d a corpus value may hold", p.URL, p.SiteID, size, MaxValueBytes)
			}
			cj.Pages = append(cj.Pages, pj)
		}
		doc.Collections = append(doc.Collections, cj)
	}
	gz := gzip.NewWriter(w)
	encErr := json.NewEncoder(gz).Encode(&doc)
	closeErr := gz.Close() // Close flushes; its error means truncated output
	if encErr != nil {
		return fmt.Errorf("corpus: encode: %w", encErr)
	}
	if closeErr != nil {
		return fmt.Errorf("corpus: compress: %w", closeErr)
	}
	return nil
}

// byteCounter is a writer that counts the bytes written to it.
type byteCounter int

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// WriteFile writes the corpus to path (conventionally *.thor.json.gz)
// atomically, as Model.SaveFile writes a model: a reader sees the old
// file or the new one, never a half-written corpus.
func (c *Corpus) WriteFile(path string) error {
	return atomicfile.Write(path, c.Write)
}
