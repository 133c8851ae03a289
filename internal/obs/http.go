package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// HandlerOption customizes the introspection mux built by Handler.
type HandlerOption func(*handlerOptions)

type handlerOptions struct {
	health func() (bool, map[string]any)
}

// WithHealth registers a /healthz readiness endpoint. ready reports
// whether the process should receive traffic plus a detail map rendered
// in the body; not-ready is served as 503 so load balancers drain the
// instance while operators still see why (draining, shedding, …).
func WithHealth(ready func() (ok bool, detail map[string]any)) HandlerOption {
	return func(o *handlerOptions) { o.health = ready }
}

// Handler builds the introspection endpoint mux over a hub:
//
//	/metrics        — metrics snapshot as JSON; ?format=prometheus for
//	                  the Prometheus text exposition format
//	/events         — recent structured events, oldest first;
//	                  ?kind=attack filters, ?n=50 limits; served only
//	                  when events != nil
//	/qm             — live QM store dump (the demo's "query models
//	                  learned" view); served only when qmDump != nil.
//	                  ?domain=NAME selects one protection domain's
//	                  partition (no parameter = the default domain)
//	/healthz        — readiness probe (with WithHealth): 200 when the
//	                  process should receive traffic, 503 otherwise,
//	                  JSON detail either way
//	/debug/pprof/…  — the standard runtime profiles
//
// qmDump returns a JSON-serializable view of the named protection
// domain's learned model store, or nil when no such domain exists
// (rendered as 404); the empty name means the default domain. events
// returns a JSON-serializable list of up to n (0 = all) recent events of
// the given kind (empty = every kind) — the guard's event register. Both
// are injected as closures so obs stays dependency-free.
func Handler(h *Hub, qmDump func(domain string) any, events func(kind string, n int) any, opts ...HandlerOption) http.Handler {
	var ho handlerOptions
	for _, opt := range opts {
		opt(&ho)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := h.Metrics.Snapshot()
		if strings.HasPrefix(r.URL.Query().Get("format"), "prom") {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			writePrometheus(w, snap)
			return
		}
		writeJSON(w, snap)
	})
	if events != nil {
		mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
			n := 0
			if s := r.URL.Query().Get("n"); s != "" {
				v, err := strconv.Atoi(s)
				if err != nil || v < 0 {
					http.Error(w, "n must be a non-negative integer", http.StatusBadRequest)
					return
				}
				n = v
			}
			writeJSON(w, events(r.URL.Query().Get("kind"), n))
		})
	}
	if qmDump != nil {
		mux.HandleFunc("/qm", func(w http.ResponseWriter, r *http.Request) {
			dump := qmDump(r.URL.Query().Get("domain"))
			if dump == nil {
				http.Error(w, "unknown domain", http.StatusNotFound)
				return
			}
			writeJSON(w, dump)
		})
	}
	if ho.health != nil {
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			ok, detail := ho.health()
			body := map[string]any{"ready": ok}
			for k, v := range detail {
				body[k] = v
			}
			w.Header().Set("Content-Type", "application/json")
			if !ok {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(body)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writePrometheus renders the snapshot in the Prometheus text exposition
// format. Metric names are prefixed "septic_" and sanitized (dots and
// dashes to underscores); histograms expose the conventional
// _bucket{le=…} / _sum / _count triple with le in seconds.
func writePrometheus(w http.ResponseWriter, s Snapshot) {
	for _, name := range sortedKeys(s.Counters) {
		p := promName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", p, p, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		p := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", p, p, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		hs := s.Histograms[name]
		p := promName(name) + "_seconds"
		fmt.Fprintf(w, "# TYPE %s histogram\n", p)
		for _, b := range hs.Buckets {
			le := "+Inf"
			if b.UpperNS >= 0 {
				le = strconv.FormatFloat(float64(b.UpperNS)/1e9, 'g', -1, 64)
			}
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", p, le, b.Cumulative)
		}
		fmt.Fprintf(w, "%s_sum %g\n", p, float64(hs.SumNS)/1e9)
		fmt.Fprintf(w, "%s_count %d\n", p, hs.Count)
	}
}

// promName maps a registry metric name onto the Prometheus charset.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 7)
	b.WriteString("septic_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
