package qaindex

import (
	"strings"

	"thor/internal/core"
	"thor/internal/objects"
)

// DocsFromPagelets runs stage three over extracted pagelets and renders
// every QA-Object as an ingest spec — the Doc stream feeding sharded
// builds (one extraction stream's contribution to IngestSharded). Text
// normalization matches Index.Add, so the exhaustive reference indexes
// the same documents identically.
func DocsFromPagelets(siteID int, siteName string, pagelets []*core.Pagelet, pt *objects.Partitioner) []Doc {
	if pt == nil {
		pt = objects.NewPartitioner(objects.Config{})
	}
	var out []Doc
	for _, pl := range pagelets {
		for _, obj := range pt.Partition(pl.Node, pl.Objects) {
			out = append(out, Doc{
				SiteID: siteID, SiteName: siteName,
				ProbeQuery: pl.Page.Query, PageURL: pl.Page.URL,
				Text: strings.TrimSpace(obj.Text()),
			})
		}
	}
	return out
}
