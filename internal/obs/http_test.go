package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// getJSON fetches url and decodes the JSON body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func testHub() *Hub {
	h := NewHub()
	h.Metrics.Counter("core.attacks").Add(2)
	h.Metrics.Gauge("wire.conns.active").Set(3)
	h.Metrics.GaugeFunc("engine.parse_cache.entries", func() int64 { return 5 })
	h.Metrics.Histogram("engine.stage.execute").Observe(42 * time.Microsecond)
	return h
}

func TestMetricsJSON(t *testing.T) {
	srv := httptest.NewServer(Handler(testHub(), nil, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["core.attacks"] != 2 {
		t.Errorf("counters = %v", snap.Counters)
	}
	if snap.Gauges["wire.conns.active"] != 3 || snap.Gauges["engine.parse_cache.entries"] != 5 {
		t.Errorf("gauges = %v", snap.Gauges)
	}
	hs, ok := snap.Histograms["engine.stage.execute"]
	if !ok || hs.Count != 1 {
		t.Errorf("histograms = %v", snap.Histograms)
	}
}

func TestMetricsPrometheus(t *testing.T) {
	srv := httptest.NewServer(Handler(testHub(), nil, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE septic_core_attacks counter",
		"septic_core_attacks 2",
		"# TYPE septic_wire_conns_active gauge",
		"septic_engine_parse_cache_entries 5",
		"# TYPE septic_engine_stage_execute_seconds histogram",
		`septic_engine_stage_execute_seconds_bucket{le="+Inf"} 1`,
		"septic_engine_stage_execute_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestEventsEndpoint: the handler parses ?kind= and ?n=, hands them to
// the closure it was given and renders what comes back — an empty list as
// [] — and without a closure the endpoint does not exist. (What the
// register returns for a kind is core's to test.)
func TestEventsEndpoint(t *testing.T) {
	type call struct {
		kind string
		n    int
	}
	var calls []call
	events := func(kind string, n int) any {
		calls = append(calls, call{kind, n})
		if kind == "attack" {
			return []map[string]any{{"kind": "attack", "detector": "sqli/structural"}}
		}
		return []string{}
	}
	srv := httptest.NewServer(Handler(testHub(), nil, events))
	defer srv.Close()

	var attacks []map[string]any
	getJSON(t, srv.URL+"/events?kind=attack&n=5", &attacks)
	if len(attacks) != 1 || attacks[0]["detector"] != "sqli/structural" {
		t.Errorf("attack filter = %+v", attacks)
	}
	var none []any
	getJSON(t, srv.URL+"/events", &none)
	if none == nil || len(none) != 0 {
		t.Errorf("empty list should render [], got %v", none)
	}
	if len(calls) != 2 || calls[0] != (call{"attack", 5}) || calls[1] != (call{"", 0}) {
		t.Errorf("closure saw %+v", calls)
	}

	resp, err := srv.Client().Get(srv.URL + "/events?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad n: status %d, want 400", resp.StatusCode)
	}

	bare := httptest.NewServer(Handler(testHub(), nil, nil))
	defer bare.Close()
	if resp, err = bare.Client().Get(bare.URL + "/events"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("/events without a register: status %d, want 404", resp.StatusCode)
	}
}

func TestQMEndpoint(t *testing.T) {
	dump := func(domain string) any {
		switch domain {
		case "", "default":
			return []map[string]any{{"id": "q42", "models": 1, "hits": 7}}
		case "shop":
			return []map[string]any{{"id": "shop:q1", "models": 1, "hits": 2}}
		default:
			return nil
		}
	}
	srv := httptest.NewServer(Handler(testHub(), dump, nil))
	defer srv.Close()
	var got []map[string]any
	getJSON(t, srv.URL+"/qm", &got)
	if len(got) != 1 || got[0]["id"] != "q42" {
		t.Errorf("/qm = %v", got)
	}

	// ?domain= selects one protection domain's partition.
	got = nil
	getJSON(t, srv.URL+"/qm?domain=shop", &got)
	if len(got) != 1 || got[0]["id"] != "shop:q1" {
		t.Errorf("/qm?domain=shop = %v", got)
	}
	resp, err := srv.Client().Get(srv.URL + "/qm?domain=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("/qm unknown domain: status %d, want 404", resp.StatusCode)
	}

	// Without a dump function the endpoint does not exist.
	bare := httptest.NewServer(Handler(testHub(), nil, nil))
	defer bare.Close()
	resp, err = bare.Client().Get(bare.URL + "/qm")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("/qm without dump: status %d, want 404", resp.StatusCode)
	}
}

func TestPprofWired(t *testing.T) {
	srv := httptest.NewServer(Handler(testHub(), nil, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof cmdline: status %d", resp.StatusCode)
	}
}
