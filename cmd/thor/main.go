// Command thor runs the full THOR pipeline — query probing, two-phase
// QA-Pagelet extraction, and QA-Object partitioning — against simulated
// deep-web sites, printing what was discovered at each stage.
//
// Usage:
//
//	thor                   # probe one simulated site and extract
//	thor -site 7           # a different site profile
//	thor -sites 5          # several sites, summary per site
//	thor -sites 5 -workers 1  # same output, one core (default 0 = all cores)
//	thor -dict 100 -nonsense 10
//	thor -clusterer bisecting          # pick the phase-one algorithm by name
//	thor -save-model site0.model.gz    # train once, persist the model
//	thor -sites 5 -save-corpus c.thor.json.gz  # persist the probed corpus
//	thor -corpus c.thor.json.gz        # extract from a persisted corpus, streamed off the file
//	thor -serve :8080      # serve the simulated deep web over HTTP instead
//	thor -serve :8080 -model site0.model.gz  # …plus POST /extract serving
//	thor -serve :8080 -models models/   # a fleet: POST /extract/<site> per model file
//	thor -sites 5 -save-index idx/     # probe, extract, and persist a sharded QA-object index
//	thor -serve :8080 -index idx/      # …and serve GET /search + GET /sites over it
//	thor -v                # dump extracted pagelets and objects
//
// Live sites: point THOR at any search endpoint reachable over HTTP; the
// pipeline runs identically, just without ground-truth scoring:
//
//	thor -url http://localhost:8080/site/0/search -param q
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"thor/internal/cluster"
	"thor/internal/core"
	"thor/internal/deepweb"
	"thor/internal/fleet"
	"thor/internal/lifecycle"
	"thor/internal/objects"
	"thor/internal/parallel"
	"thor/internal/probe"
	"thor/internal/qaindex"
)

func main() {
	var (
		site    = flag.Int("site", 0, "site profile id to probe (when -sites is 1)")
		nsites  = flag.Int("sites", 1, "number of sites to probe")
		dict    = flag.Int("dict", 100, "dictionary probe words")
		nons    = flag.Int("nonsense", 10, "nonsense probe words")
		seed    = flag.Int64("seed", 42, "random seed")
		k       = flag.Int("k", 4, "page clusters")
		top     = flag.Int("top", 2, "clusters passed to phase 2")
		verbose = flag.Bool("v", false, "print extracted pagelets and objects")
		workers = flag.Int("workers", 0, "concurrent workers (1 = serial, 0 = all cores); output is identical either way")
		serve   = flag.String("serve", "", "serve the simulated deep web on this address instead of extracting")
		liveURL = flag.String("url", "", "probe a live search endpoint at this URL instead of a simulated site")
		param   = flag.String("param", "q", "query parameter name for -url")
		clust   = flag.String("clusterer", "", "phase-one clusterer by registry name (default: the approach's own algorithm)")
		model   = flag.String("model", "", "with -serve: load a trained model from this file and mount POST /extract")
		models  = flag.String("models", "", "with -serve: directory of per-site model files (<site>.thor.model.gz) served lazily at POST /extract/<site>")
		drift   = flag.Bool("drift", false, "with -serve: watch served models for template drift and rebuild them in-process (models without a training baseline serve unchanged)")
		saveTo  = flag.String("save-model", "", "train on the probed site and save the model to this file")
		indexF  = flag.String("index", "", "with -serve: load a QA-object index (a -save-index segment directory) and mount GET /search + GET /sites")
		saveIdx = flag.String("save-index", "", "probe the sites, index every extracted QA-object, and persist the index (a directory of segment files)")
		idxShd  = flag.Int("index-shards", 4, "segment count for -save-index builds")
		corpusF = flag.String("corpus", "", "extract from a persisted corpus file, streamed page by page, instead of probing")
		saveCor = flag.String("save-corpus", "", "probe the sites, persist the labeled corpus to this file, and exit")
	)
	flag.Parse()

	if *clust != "" {
		if _, err := cluster.MustLookup(*clust); err != nil {
			log.Fatal(err)
		}
	}

	if *liveURL != "" {
		runLive(*liveURL, *param, *dict, *nons, *seed, *k, *top, *workers, *clust, *verbose)
		return
	}

	if *corpusF != "" {
		mkCfg := func(siteID int) core.Config {
			cfg := core.DefaultConfig()
			cfg.K = *k
			cfg.TopClusters = *top
			cfg.Seed = *seed + int64(siteID)
			cfg.Workers = *workers
			cfg.Clusterer = *clust
			return cfg
		}
		if err := runCorpusFile(os.Stdout, *corpusF, mkCfg, *verbose); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *serve != "" {
		var fl *fleet.Fleet
		var ix qaindex.Searcher
		if *models != "" || *model != "" || *indexF != "" {
			fcfg := fleet.Config{Dir: *models, Logf: log.Printf}
			if *drift {
				fcfg.Drift = &lifecycle.Config{}
				log.Printf("drift detection on: served models with a training baseline rebuild in-process when their traffic shifts")
			}
			fl = fleet.New(fcfg)
			if *model != "" {
				m, err := core.LoadModelFile(*model)
				if err != nil {
					log.Fatal(err)
				}
				fl.SetDefault(m)
				log.Printf("loaded %s; POST /extract serves single-page extraction", m)
			}
			if *models != "" {
				log.Printf("serving models from %s at POST /extract/<site>", *models)
			}
			if *indexF != "" {
				sh, err := qaindex.Open(*indexF)
				if err != nil {
					log.Fatal(err)
				}
				ix = sh
				log.Printf("loaded %s; GET /search and GET /sites serve QA-object retrieval", sh)
			}
		}
		if err := serveFarm(*serve, max(*nsites, 1), *seed, fl, ix); err != nil {
			log.Fatal(err)
		}
		return
	}

	plan := probe.NewPlan(*dict, *nons, *seed+1)
	prober := &probe.Prober{Plan: plan, Labeler: deepweb.Labeler()}
	fmt.Printf("probing plan: %s\n", plan)

	var sites []*deepweb.Site
	if *nsites <= 1 {
		sites = []*deepweb.Site{deepweb.NewSite(deepweb.SiteConfig{ID: *site, Seed: *seed})}
	} else {
		sites = deepweb.NewSites(*nsites, *seed)
	}

	if *saveCor != "" {
		c := prober.ProbeAll(deepweb.AsProbeSites(sites))
		if err := c.WriteFile(*saveCor); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved %d collections (%d pages) to %s\n",
			len(c.Collections), c.TotalPages(), *saveCor)
		return
	}

	if *saveIdx != "" {
		// One extraction stream per site, concatenated in site order and
		// hash-partitioned — bit-identical at any -workers value.
		sh := qaindex.IngestSharded(len(sites), *idxShd, *workers, func(i int) []qaindex.Doc {
			s := sites[i]
			cfg := core.DefaultConfig()
			cfg.K = *k
			cfg.TopClusters = *top
			cfg.Seed = *seed + int64(s.ID())
			cfg.Workers = 1
			cfg.Clusterer = *clust
			col := prober.ProbeSite(s)
			res := core.NewExtractor(cfg).Extract(col.Pages)
			return qaindex.DocsFromPagelets(s.ID(), s.Name(), res.Pagelets, nil)
		})
		if err := sh.WriteDir(*saveIdx); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("indexed %d QA-objects from %d sites into %s (%s)\n",
			sh.Len(), len(sites), *saveIdx, sh)
		return
	}

	if *saveTo != "" {
		if len(sites) > 1 {
			log.Fatal("-save-model trains on one site; drop -sites or set it to 1")
		}
		s := sites[0]
		cfg := core.DefaultConfig()
		cfg.K = *k
		cfg.TopClusters = *top
		cfg.Seed = *seed + int64(s.ID())
		cfg.Workers = *workers
		cfg.Clusterer = *clust
		col := prober.ProbeSite(s)
		m, err := core.NewExtractor(cfg).BuildModel(col.Pages)
		if err != nil {
			log.Fatal(err)
		}
		if err := m.SaveFile(*saveTo); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: extracted %d QA-Pagelets; saved %s to %s\n",
			s.Name(), len(m.Training().Pagelets), m, *saveTo)
		return
	}

	// With several sites the fan-out happens across sites (each site's
	// pipeline serial); with one site the pipeline itself fans out. Either
	// way reports are rendered per site and printed in site order, so the
	// output is identical for every -workers value.
	outer, inner := *workers, 1
	if len(sites) <= 1 {
		outer, inner = 1, *workers
	}
	reports := parallel.Map(len(sites), outer, func(i int) siteReport {
		s := sites[i]
		cfg := core.DefaultConfig()
		cfg.K = *k
		cfg.TopClusters = *top
		cfg.Seed = *seed + int64(s.ID())
		cfg.Workers = inner
		cfg.Clusterer = *clust
		return runSite(s, prober, cfg, *verbose)
	})

	if err := writeReports(os.Stdout, reports); err != nil {
		log.Fatal(err)
	}
}

// siteReport is one site's rendered output plus its scoring tally.
type siteReport struct {
	out     string
	c, i, t int
}

// runSite probes one simulated site, extracts its QA-Pagelets, and
// renders the per-site report into a string so concurrent site runs
// never interleave their output.
func runSite(s *deepweb.Site, prober *probe.Prober, cfg core.Config, verbose bool) siteReport {
	col := prober.ProbeSite(s)
	res := core.NewExtractor(cfg).Extract(col.Pages)
	return renderSiteReport(s.Name(), col.Pages, res, verbose)
}

// serveFarm serves the simulated deep web — plus the fleet's extraction
// and retrieval routes when model serving or an index was configured —
// until the listener fails or the process receives SIGINT/SIGTERM.
func serveFarm(addr string, nsites int, seed int64, fl *fleet.Fleet, ix qaindex.Searcher) error {
	farm := deepweb.NewFarm(nsites, seed)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("serving %d simulated deep-web sites on %s", len(farm.Sites), ln.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)

	return runServer(newServer(serveHandler(farm, fl, ix)), ln, fl, sigs, shutdownDrain)
}

// shutdownDrain is how long a stop signal waits for in-flight requests.
const shutdownDrain = 5 * time.Second

// newServer returns the server behind -serve. ReadHeaderTimeout closes a
// connection whose request headers have not all arrived in time, so a
// slow or silent client holds no connection open for long.
func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
}

// runServer serves on ln until the listener fails or a value arrives on
// stop, at which point in-flight requests — fleet extractions included —
// are drained via Shutdown and only then is the fleet's registry closed,
// so no draining request ever sees a torn or vanished model. The drain
// waits at most drain: Shutdown counts a connection that has not sent a
// request yet as busy until it is five seconds old, so a client that
// connects and stays silent would otherwise hold it to its deadline.
// Past the deadline every remaining connection is closed, and the fleet
// is still closed.
func runServer(srv *http.Server, ln net.Listener, fl *fleet.Fleet, stop <-chan os.Signal, drain time.Duration) error {
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err // the listener failed before any shutdown request
	case sig := <-stop:
		log.Printf("received %s; shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain unfinished after %s (%v); closing the remaining connections", drain, err)
			if err := srv.Close(); err != nil {
				log.Printf("closing connections: %v", err)
			}
		}
		<-serveErr // Serve has returned ErrServerClosed
		if fl != nil {
			fl.Close()
		}
		return nil
	}
}

// runLive probes a real search endpoint and prints what THOR extracts;
// with no ground truth the report is the ranked clusters and the regions.
func runLive(searchURL, param string, dict, nons int, seed int64, k, top, workers int, clusterer string, verbose bool) {
	site := &probe.HTTPSite{SearchURL: searchURL, QueryParam: param}
	prober := &probe.Prober{Plan: probe.NewPlan(dict, nons, seed+1)}
	fmt.Printf("probing %s (%s)\n", site.Name(), prober.Plan)
	col := prober.ProbeSite(site)

	cfg := core.DefaultConfig()
	cfg.K = k
	cfg.TopClusters = top
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Clusterer = clusterer
	res := core.NewExtractor(cfg).Extract(col.Pages)
	for rank, pc := range res.Phase1.Ranked {
		passed := " "
		if rank < len(res.PassedClusters) {
			passed = "*"
		}
		fmt.Printf("  %s cluster %d: %3d pages, score %.3f\n", passed, rank+1, len(pc.Pages), pc.Score)
	}
	fmt.Printf("extracted %d QA-Pagelets\n", len(res.Pagelets))
	if verbose {
		part := objects.NewPartitioner(objects.Config{})
		for _, pl := range res.Pagelets[:min(5, len(res.Pagelets))] {
			objs := part.Partition(pl.Node, pl.Objects)
			fmt.Printf("\n  %q → %s (%d objects)\n", pl.Page.Query, pl.Path, len(objs))
			for _, o := range objs[:min(3, len(objs))] {
				text := strings.TrimSpace(o.Text())
				if len(text) > 100 {
					text = text[:100] + "…"
				}
				fmt.Printf("    %s\n", text)
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
