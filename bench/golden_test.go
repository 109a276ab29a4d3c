package main

import (
	"strings"
	"testing"
	"time"
)

func TestGoldenCoversEveryOutput(t *testing.T) {
	g, err := parseGolden(goldenText)
	if err != nil {
		t.Fatal(err)
	}
	// 24 experiment tables plus the 18 fig13a job results.
	if len(g) != 24+18 {
		t.Errorf("golden has %d digests, want 42", len(g))
	}
	for _, name := range []string{tableName("fig12a"), tableName("max-qps"), editJobName(0), editJobName(17)} {
		if len(g[name]) != 64 {
			t.Errorf("golden has no digest for %s", name)
		}
	}
}

func TestParseGoldenRejectsMalformedLines(t *testing.T) {
	for _, text := range []string{"abc table/fig5\n", strings.Repeat("a", 64) + "\n", strings.Repeat("a", 64) + " x y\n"} {
		if _, err := parseGolden(text); err == nil {
			t.Errorf("parseGolden(%q) accepted a malformed line", text)
		}
	}
}

// TestWrongDigestIsAFailedOp checks that an output that does not match its
// golden digest counts as a failed op, and that the run carries on.
func TestWrongDigestIsAFailedOp(t *testing.T) {
	text := []byte("== Fig 5 ==\n")
	g := golden{tableName("fig5"): digest([]byte("some other table"))}
	b := newBench(1, time.Second, false, g, t.TempDir())
	_, ok := b.op("fig5", func() error { return b.checkTable("fig5", text) })
	if ok {
		t.Fatal("op with a mismatched table succeeded")
	}
	_, ok = b.op("fig5 again", func() error { return b.golden.check(tableName("fig5"), []byte("some other table")) })
	if !ok {
		t.Fatal("op with a matching table failed")
	}
	_, ok = b.op("panics", func() error { panic("boom") })
	if ok {
		t.Fatal("a panicking op succeeded")
	}
	if b.attempted != 3 || b.failed() != 2 {
		t.Errorf("attempted %d failed %d, want 3 and 2", b.attempted, b.failed())
	}
	if !strings.Contains(b.failures[0], "does not match golden") {
		t.Errorf("failure reads %q, want a digest mismatch", b.failures[0])
	}
}
