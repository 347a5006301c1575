package corpus

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
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

// Write serializes the corpus to w as gzipped JSON.
func (c *Corpus) Write(w io.Writer) error {
	doc := corpusJSON{Version: persistVersion}
	for _, col := range c.Collections {
		cj := collectionJSON{SiteID: col.SiteID, Name: col.Name}
		for _, p := range col.Pages {
			cj.Pages = append(cj.Pages, pageJSON{
				SiteID: p.SiteID, URL: p.URL, Query: p.Query,
				Class: int(p.Class), HTML: p.HTML,
			})
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

// WriteFile writes the corpus to path (conventionally *.thor.json.gz).
func (c *Corpus) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	werr := c.Write(f)
	if cerr := f.Close(); werr == nil && cerr != nil {
		werr = fmt.Errorf("corpus: %w", cerr)
	}
	return werr
}
