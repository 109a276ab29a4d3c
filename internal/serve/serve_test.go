package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pifsrec/internal/harness"
	"pifsrec/internal/memo"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	prev := harness.SetStore(memo.InMemory())
	srv := httptest.NewServer(NewHandler())
	t.Cleanup(func() {
		srv.Close()
		harness.SetStore(prev)
	})
	return srv
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestExperimentsEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, body := get(t, srv.URL+"/v1/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Experiments []struct {
			ID   string `json:"id"`
			Jobs int    `json:"jobs"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Experiments) != len(harness.IDs()) {
		t.Errorf("%d experiments listed, harness has %d", len(out.Experiments), len(harness.IDs()))
	}
	byID := make(map[string]int)
	for _, e := range out.Experiments {
		byID[e.ID] = e.Jobs
	}
	if byID["fig13a"] != 18 {
		t.Errorf("fig13a lists %d jobs, want 18", byID["fig13a"])
	}
	if byID["fig16"] != 0 {
		t.Errorf("analytic fig16 lists %d jobs, want 0", byID["fig16"])
	}
}

// TestRunEndpointMemoizes asserts /v1/run serves the exact pifsbench table
// bytes and that a repeated request answers all-hit from the cache.
func TestRunEndpointMemoizes(t *testing.T) {
	srv := testServer(t)

	// Render the expected bytes with the cache detached so the first HTTP
	// request below is genuinely cold.
	store := harness.SetStore(nil)
	var want bytes.Buffer
	err := harness.Run("ablation-migration", &want)
	harness.SetStore(store)
	if err != nil {
		t.Fatal(err)
	}

	resp1, body1 := get(t, srv.URL+"/v1/run?id=ablation-migration")
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	if string(body1) != want.String() {
		t.Error("served table differs from harness.Run bytes")
	}
	if resp1.Header.Get("X-Memo-Misses") == "0" {
		t.Error("cold request reported zero misses")
	}

	resp2, body2 := get(t, srv.URL+"/v1/run?id=ablation-migration")
	if !bytes.Equal(body1, body2) {
		t.Error("warm request served different bytes")
	}
	if resp2.Header.Get("X-Memo-Misses") != "0" {
		t.Errorf("warm request missed: X-Memo-Misses=%s", resp2.Header.Get("X-Memo-Misses"))
	}
	if resp2.Header.Get("X-Memo-Hits") != "2" {
		t.Errorf("warm request X-Memo-Hits=%s, want 2", resp2.Header.Get("X-Memo-Hits"))
	}
}

func TestRunEndpointUnknownID(t *testing.T) {
	srv := testServer(t)
	resp, body := get(t, srv.URL+"/v1/run?id=nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(string(body), "fig12a") {
		t.Errorf("404 body does not enumerate valid ids: %s", body)
	}
}

// TestSimulateEndpoint posts a raw config sweep twice: results come back in
// input order, and the repeat (simulated again, since raw sweeps bypass the
// result cache) serves an identical response body.
func TestSimulateEndpoint(t *testing.T) {
	srv := testServer(t)
	req := `{"configs":[{"scheme":"Pond"},{"scheme":"PIFS-Rec","devices":8,"seed":5}]}`

	post := func() (*http.Response, []byte) {
		resp, err := http.Post(srv.URL+"/v1/simulate", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	resp1, body1 := post()
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	var out struct {
		Results []struct {
			Result *struct {
				Scheme   string
				NSPerBag float64
			} `json:"result"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body1, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("%d results, want 2", len(out.Results))
	}
	for i, r := range out.Results {
		if r.Error != "" || r.Result == nil || r.Result.NSPerBag <= 0 {
			t.Errorf("result %d broken: %+v", i, r)
		}
	}
	if out.Results[0].Result.Scheme != "Pond" {
		t.Errorf("result order not preserved: %q first", out.Results[0].Result.Scheme)
	}

	_, body2 := post()
	if !bytes.Equal(body1, body2) {
		t.Error("repeated sweep served different bytes")
	}
}

func TestSimulateEndpointRejectsBadInput(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name, body, wantErr string
	}{
		{"bad json", `{"configs": [`, "decoding"},
		{"empty", `{"configs": []}`, "no configs"},
		{"bad scheme", `{"configs":[{"scheme":"GPU"}]}`, "unknown scheme"},
		{"bad model", `{"configs":[{"model":"RMC9"}]}`, "unknown model"},
		{"bad scale", `{"configs":[{"scale":-1}]}`, "scale"},
		{"bad batches", `{"configs":[{"batches":-1}]}`, "batches"},
		{"negative devices", `{"configs":[{"devices":-1}]}`, "devices -1 outside [0, 64]"},
		{"too many devices", `{"configs":[{"devices":65}]}`, "devices 65 outside [0, 64]"},
		{"too many hosts", `{"configs":[{"hosts":65}]}`, "hosts 65 outside [0, 64]"},
		{"too many batches", `{"configs":[{"batches":65}]}`, "batches 65 outside [0, 64]"},
		{"too many switches", `{"configs":[{"switches":33}]}`, "switches 33 outside [0, 32]"},
		{"too many configs", `{"configs":[` + strings.Repeat(`{},`, 64) + `{}]}`, "65 configs exceed the limit of 64"},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+"/v1/simulate", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Error string `json:"error"`
		}
		if derr := json.NewDecoder(resp.Body).Decode(&out); derr != nil {
			t.Fatalf("%s: %v", tc.name, derr)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if !strings.Contains(out.Error, tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, out.Error, tc.wantErr)
		}
	}
}

// postPadded posts a valid JSON object body with an unknown "pad" field
// that pushes it past maxRequestBytes, and returns the response status and
// error message.
func postPadded(t *testing.T, url, body string) (int, string) {
	t.Helper()
	padded := strings.TrimSuffix(body, "}") + `,"pad":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	resp, err := http.Post(url, "application/json", strings.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out.Error
}

// TestSimulateEndpointBoundsBody: a valid sweep padded past 1 MiB is
// answered 413 before any config runs.
func TestSimulateEndpointBoundsBody(t *testing.T) {
	srv := testServer(t)
	code, msg := postPadded(t, srv.URL+"/v1/simulate", `{"configs":[{"scheme":"Pond"}]}`)
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "exceeds") {
		t.Errorf("padded simulate body: %d %q, want 413 naming the bound", code, msg)
	}
}

func TestStatsEndpointAndMethods(t *testing.T) {
	srv := testServer(t)
	resp, body := get(t, srv.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st memo.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	for _, ep := range []string{"/v1/experiments", "/v1/stats", "/v1/run"} {
		resp, err := http.Post(srv.URL+ep, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", ep, resp.StatusCode)
		}
	}
	respGet, err := http.Get(srv.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	respGet.Body.Close()
	if respGet.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/simulate: status %d, want 405", respGet.StatusCode)
	}
}

// gzipTestServer answers ?n=N&chunk=C with N deterministic bytes written in
// C-byte pieces (all at once for C=0), under status 200 or, with ?teapot,
// 418.
func gzipTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(withGzip(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		n, _ := strconv.Atoi(q.Get("n"))
		chunk, _ := strconv.Atoi(q.Get("chunk"))
		w.Header().Set("Content-Type", "application/octet-stream")
		if q.Has("teapot") {
			w.WriteHeader(http.StatusTeapot)
		}
		body := gzipTestBody(n)
		if chunk == 0 {
			chunk = max(n, 1)
		}
		for len(body) > 0 {
			k := min(chunk, len(body))
			w.Write(body[:k])
			body = body[k:]
		}
	})))
	t.Cleanup(srv.Close)
	return srv
}

// gzipTestBody is n pseudo-random letters seeded by n: compressible but not
// constant, and different for responses of different lengths.
func gzipTestBody(n int) []byte {
	b := make([]byte, n)
	x := uint32(n)*2654435761 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[i] = 'a' + byte(x%7) // compressible, not constant
	}
	return b
}

// getGzipBody requests path with Accept-Encoding: gzip on a client that
// does not decompress, and returns the status, whether the body came
// gzipped, and the decoded bytes.
func getGzipBody(t *testing.T, client *http.Client, url string) (int, bool, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, raw := do(t, client, req)
	if resp.Header.Get("Content-Encoding") != "gzip" {
		return resp.StatusCode, false, raw
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: gzip body does not decode: %v", url, err)
	}
	return resp.StatusCode, true, body
}

// TestGzipThreshold: a gzip-accepting client gets a plain body under
// gzipThreshold bytes and a gzip body at or above it, however the handler
// splits its writes, with the handler's status; both decode to the bytes
// the handler wrote. A client that does not accept gzip gets plain bytes.
func TestGzipThreshold(t *testing.T) {
	srv := gzipTestServer(t)
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	for _, n := range []int{0, 1, 200, gzipThreshold - 1, gzipThreshold, gzipThreshold + 1, 64 << 10} {
		for _, chunk := range []int{0, 1, 700} {
			for _, teapot := range []bool{false, true} {
				url := fmt.Sprintf("%s/?n=%d&chunk=%d", srv.URL, n, chunk)
				wantCode := http.StatusOK
				if teapot {
					url += "&teapot"
					wantCode = http.StatusTeapot
				}
				code, gzipped, body := getGzipBody(t, client, url)
				if code != wantCode || gzipped != (n >= gzipThreshold) || !bytes.Equal(body, gzipTestBody(n)) {
					t.Errorf("n=%d chunk=%d: status %d gzipped=%v, %d bytes match=%v; want %d, gzipped=%v",
						n, chunk, code, gzipped, len(body), bytes.Equal(body, gzipTestBody(n)), wantCode, n >= gzipThreshold)
				}
			}
		}
	}
	resp, body := get(t, srv.URL+"/?n=5000") // the default client asks for gzip itself
	if !bytes.Equal(body, gzipTestBody(5000)) || !resp.Uncompressed {
		t.Errorf("transparent client: %d bytes, uncompressed=%v", len(body), resp.Uncompressed)
	}
	req, _ := http.NewRequest("GET", srv.URL+"/?n=5000", nil)
	req.Header.Set("Accept-Encoding", "identity")
	resp, body = do(t, client, req)
	if resp.Header.Get("Content-Encoding") != "" || !bytes.Equal(body, gzipTestBody(5000)) {
		t.Errorf("client without gzip: Content-Encoding %q, %d bytes", resp.Header.Get("Content-Encoding"), len(body))
	}
}

// TestGzipPooledWritersIndependent sends back-to-back and concurrent
// compressed responses through the pooled writers: each decodes to exactly
// its own bytes, with nothing carried over from the response before.
func TestGzipPooledWritersIndependent(t *testing.T) {
	srv := gzipTestServer(t)
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	sizes := []int{64 << 10, gzipThreshold, 3000, gzipThreshold + 7}
	for _, n := range sizes {
		if _, gzipped, body := getGzipBody(t, client, fmt.Sprintf("%s/?n=%d", srv.URL, n)); !gzipped || !bytes.Equal(body, gzipTestBody(n)) {
			t.Errorf("back-to-back n=%d: gzipped=%v, %d bytes, match=%v", n, gzipped, len(body), bytes.Equal(body, gzipTestBody(n)))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range sizes {
				n += g
				_, gzipped, body := getGzipBody(t, client, fmt.Sprintf("%s/?n=%d&chunk=%d", srv.URL, n, 100*g))
				if !gzipped || !bytes.Equal(body, gzipTestBody(n)) {
					t.Errorf("concurrent n=%d: gzipped=%v, match=%v", n, gzipped, bytes.Equal(body, gzipTestBody(n)))
				}
			}
		}()
	}
	wg.Wait()
}
