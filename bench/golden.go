package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"strings"

	"pifsrec/internal/harness"
)

// goldenText holds the SHA-256 digest of every experiment's table and of
// each fig13a job result, as the current code produces them with no cache.
// Regenerate with `bash bench/run.sh -write-golden bench/golden/digests.txt`.
//
//go:embed golden/digests.txt
var goldenText string

// golden maps an output name ("table/<id>", "fig13a/job/<k>") to its digest.
type golden map[string]string

func parseGolden(text string) (golden, error) {
	g := make(golden)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 2 || len(f[0]) != 64 {
			return nil, fmt.Errorf("golden: malformed line %q", sc.Text())
		}
		g[f[1]] = f[0]
	}
	return g, sc.Err()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// check returns an error unless b matches the golden digest for name.
func (g golden) check(name string, b []byte) error {
	want, ok := g[name]
	if !ok {
		return fmt.Errorf("no golden digest for %s", name)
	}
	if got := digest(b); got != want {
		return fmt.Errorf("%s: output digest %.12s does not match golden %.12s", name, got, want)
	}
	return nil
}

func tableName(id string) string { return "table/" + id }

func editJobName(k int) string { return fmt.Sprintf("%s/job/%d", editExperiment, k) }

// writeGolden runs every experiment once with no cache and writes the
// digests of their tables and of the fig13a job results to path.
func writeGolden(path string) error {
	harness.SetParallelism(2)
	var b strings.Builder
	b.WriteString("# SHA-256 of each experiment's table and each fig13a job result (bench/golden.go).\n")
	for _, id := range harness.IDs() {
		t, err := harness.RunTable(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s  %s\n", digest([]byte(t.String())), tableName(id))
	}
	results := harness.DefaultRunner().RunJobs(harness.Jobs(editExperiment))
	for k, r := range results {
		p, err := harness.EncodeJobResult(r)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s  %s\n", digest(p), editJobName(k))
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
