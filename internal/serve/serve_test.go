package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pifsrec/internal/harness"
	"pifsrec/internal/memo"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	prev := harness.SetStore(memo.InMemory())
	srv := httptest.NewServer(Handler(Options{}))
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

// TestRunEndpointJobHeaders reads the job-board deltas /v1/run reports:
// with no coordinator it sets no X-Jobs-* header; with one and a worker, a
// cold fig12a sweep has every job completed remotely, and a repeat, all
// cache hits, publishes nothing.
func TestRunEndpointJobHeaders(t *testing.T) {
	jobHeaders := []string{"X-Jobs-Remote", "X-Jobs-Local", "X-Jobs-Shared"}
	plain := testServer(t)
	resp, body := get(t, plain.URL+"/v1/run?id=ablation-migration")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no coordinator: status %d: %s", resp.StatusCode, body)
	}
	for _, h := range jobHeaders {
		if v, ok := resp.Header[h]; ok {
			t.Errorf("no coordinator: %s set to %q", h, v)
		}
	}

	srv, _ := distServer(t, CoordinatorConfig{
		LeaseTTL:    10 * time.Second,
		ClaimBudget: 10 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := startWorker(ctx, srv.URL, "w0", memo.InMemory())
	defer func() {
		cancel()
		<-done
	}()
	waitLive(t, srv, 1)
	jobs := fmt.Sprint(len(harness.Jobs("fig12a")))
	for _, want := range [][3]string{{jobs, "0", "0"}, {"0", "0", "0"}} {
		resp, body := get(t, srv.URL+"/v1/run?id=fig12a")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var got [3]string
		for i, h := range jobHeaders {
			got[i] = resp.Header.Get(h)
		}
		if got != want {
			t.Errorf("remote/local/shared = %v, want %v", got, want)
		}
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
