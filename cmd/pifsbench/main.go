// Command pifsbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	pifsbench fig12a                 # one experiment
//	pifsbench -experiment fig12a     # same, flag form
//	pifsbench latency-sweep          # open-loop tail-latency matrix
//	pifsbench                        # everything (EXPERIMENTS.md source)
//	pifsbench -list                  # available experiment ids
//	pifsbench -coordinator http://host:8080 fig12a   # fetch from a sweep service
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strings"

	"pifsrec/internal/harness"
	"pifsrec/internal/memo"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment id (see -list) or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache directory (created if missing; warm sweeps re-simulate only configs the cache has never seen)")
	coordinator := flag.String("coordinator", "", "sweep-service base URL (e.g. http://host:8080): fetch tables via GET /v1/run instead of simulating locally (the service's worker fleet and cache do the work; tables are byte-identical)")
	flag.Parse()

	// The cache directory is probed before any sweep starts: a path that
	// cannot be created or written is a usage error now, not a degraded
	// cache discovered an hour into RunAll.
	if *cacheDir != "" {
		store, err := memo.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pifsbench:", err)
			os.Exit(2)
		}
		harness.SetStore(store)
	}

	if *list {
		for _, id := range harness.IDs() {
			fmt.Println(id)
		}
		return
	}
	id := *experiment
	if flag.NArg() > 0 { // positional form: pifsbench fig12a
		id = flag.Arg(0)
	}
	// Unknown ids are a usage error: fail fast with the valid set and exit
	// code 2 before any sweep starts.
	if id != "all" {
		if !slices.Contains(harness.IDs(), id) {
			fmt.Fprintf(os.Stderr, "pifsbench: unknown experiment %q (have %v)\n", id, harness.IDs())
			os.Exit(2)
		}
	}
	// With a coordinator, tables come over HTTP from the sweep service (and
	// its worker fleet) instead of the local pool. RunAll is a sequential
	// Run over IDs, so fetching each id in order reproduces its bytes.
	if *coordinator != "" {
		ids := []string{id}
		if id == "all" {
			ids = harness.IDs()
		}
		base := strings.TrimRight(*coordinator, "/")
		client := &http.Client{} // one client: keep-alive across fetches
		for _, one := range ids {
			if err := fetchTable(client, base, one); err != nil {
				fmt.Fprintln(os.Stderr, "pifsbench:", err)
				os.Exit(1)
			}
		}
		return
	}

	var err error
	if id == "all" {
		err = harness.RunAll(os.Stdout)
	} else {
		err = harness.Run(id, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pifsbench:", err)
		os.Exit(1)
	}
	if *cacheDir != "" {
		s := harness.CacheStats()
		fmt.Fprintf(os.Stderr, "pifsbench: memo hits=%d misses=%d corrupt=%d\n", s.Hits, s.Misses, s.CorruptEntries)
	}
}

// fetchTable streams one experiment's table from the sweep service to
// stdout and reports the service's cache and job-board deltas on stderr.
func fetchTable(client *http.Client, base, id string) error {
	resp, err := client.Get(base + "/v1/run?id=" + url.QueryEscape(id))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
		return fmt.Errorf("%s: %s: %s", base, resp.Status, strings.TrimSpace(string(b)))
	}
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		return fmt.Errorf("%s: streaming %s: %w", base, id, err)
	}
	h := resp.Header
	fmt.Fprintf(os.Stderr, "pifsbench: %s: memo hits=%s misses=%s", id, h.Get("X-Memo-Hits"), h.Get("X-Memo-Misses"))
	if r := h.Get("X-Jobs-Remote"); r != "" {
		fmt.Fprintf(os.Stderr, "; jobs remote=%s local=%s shared=%s", r, h.Get("X-Jobs-Local"), h.Get("X-Jobs-Shared"))
	}
	fmt.Fprintln(os.Stderr)
	return nil
}
