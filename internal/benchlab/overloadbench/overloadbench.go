// Package overloadbench measures the adaptive overload controls: the
// shipped deployment (internal/server) on loopback, with a known
// per-query service time (injected into the executor) and a known
// execution capacity, is driven at a sweep of offered-load multiples of
// that capacity, and each multiple reports what the admission controller
// did — how much was admitted, how much was shed, and the latency of the
// admitted requests.
//
// The point of the fixture is the brownout claim: at 4× capacity a
// server WITHOUT admission control queues without bound and every
// request's latency grows with the backlog; with the controller the
// shed rate absorbs the excess and the ADMITTED requests' p99 stays
// pinned near the shed target instead of the backlog depth.
//
// It lives in a subpackage because benchlab itself cannot import
// internal/wire (the wire chaos tests deploy benchlab apps — the
// reverse import would be a cycle).
package overloadbench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/septic-db/septic/internal/faultinject"
	"github.com/septic-db/septic/internal/server"
	"github.com/septic-db/septic/internal/wire"
)

// Params shapes one overload sweep.
type Params struct {
	// ServiceTime is the injected executor latency per query — the
	// fixture's known service cost (default 2ms).
	ServiceTime time.Duration
	// Gate is the server's concurrent-execution capacity; together with
	// ServiceTime it fixes the deployment's saturation throughput
	// Gate/ServiceTime queries per second (default 4).
	Gate int
	// Target is the admission controller's queueing-delay target
	// (default 5ms).
	Target time.Duration
	// Clients is the number of concurrent wire connections generating
	// the offered load (default 64).
	Clients int
	// Duration is the measured window per multiplier (default 2s).
	Duration time.Duration
	// Multipliers are the offered-load multiples of capacity to sweep
	// (default 1, 2, 4).
	Multipliers []int
}

func (p *Params) setDefaults() {
	if p.ServiceTime <= 0 {
		p.ServiceTime = 2 * time.Millisecond
	}
	if p.Gate <= 0 {
		p.Gate = 4
	}
	if p.Target <= 0 {
		p.Target = 5 * time.Millisecond
	}
	if p.Clients <= 0 {
		p.Clients = 64
	}
	if p.Duration <= 0 {
		p.Duration = 2 * time.Second
	}
	if len(p.Multipliers) == 0 {
		p.Multipliers = []int{1, 2, 4}
	}
}

// CapacityQPS returns the deployment's saturation throughput.
func (p *Params) CapacityQPS() float64 {
	return float64(p.Gate) / p.ServiceTime.Seconds()
}

// Row is one measured offered-load point.
type Row struct {
	// Multiplier is the offered load as a multiple of capacity.
	Multiplier int `json:"multiplier"`
	// OfferedQPS is the paced request rate across all clients.
	OfferedQPS float64 `json:"offered_qps"`
	// Sent counts requests issued; Admitted those that executed; Shed
	// the typed overload rejections; Errors everything else (must be 0).
	Sent     int64 `json:"sent"`
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
	Errors   int64 `json:"errors"`
	// P50/P99 are admitted-request latencies in nanoseconds.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
}

// ShedRate returns the shed fraction of sent requests.
func (r *Row) ShedRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Sent)
}

// Run sweeps the offered-load multipliers, one fresh deployment each
// (so a saturated run's controller state never bleeds into the next),
// and returns one row per multiplier. The executor latency is injected
// via faultinject for the duration of the sweep.
func Run(p Params) ([]Row, error) {
	p.setDefaults()
	faultinject.Arm(func(site string) {
		if site == faultinject.SiteEngineExecute {
			time.Sleep(p.ServiceTime)
		}
	})
	defer faultinject.Disarm()

	rows := make([]Row, 0, len(p.Multipliers))
	for _, m := range p.Multipliers {
		row, err := runOne(p, m)
		if err != nil {
			return nil, fmt.Errorf("multiplier %d: %w", m, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runOne measures one offered-load point against a fresh deployment.
func runOne(p Params, multiplier int) (Row, error) {
	cfg := server.Defaults()
	cfg.Addr, cfg.Mode, cfg.Quiet = "127.0.0.1:0", "training", true
	cfg.ShedTarget, cfg.MaxConcurrent = p.Target, p.Gate
	st, err := server.Start(cfg)
	if err != nil {
		return Row{}, err
	}
	defer st.Shutdown(context.Background())
	if _, err := st.DB.Exec("CREATE TABLE t (id INT)"); err != nil {
		return Row{}, err
	}

	clients := make([]*wire.Client, p.Clients)
	for i := range clients {
		c, err := wire.Dial(st.Addr)
		if err != nil {
			return Row{}, fmt.Errorf("dial client %d: %w", i, err)
		}
		defer c.Close()
		clients[i] = c
	}

	offered := float64(multiplier) * p.CapacityQPS()
	// Each client paces at clients/offered: the fleet sums to the
	// offered rate. Pacing is open-loop — a client that fell behind
	// (because an admitted request queued) fires immediately rather
	// than stretching the schedule, so overload pressure is sustained.
	period := time.Duration(float64(p.Clients) / offered * float64(time.Second))

	type tally struct {
		sent, admitted, shed, errs int64
		lat                        []time.Duration
	}
	tallies := make([]tally, p.Clients)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *wire.Client) {
			defer wg.Done()
			tl := &tallies[i]
			start := time.Now()
			// Stagger the client phases across one period: in-phase
			// clients would deliver the whole fleet as one synchronized
			// burst per tick, measuring burst absorption instead of the
			// sustained offered rate.
			next := start.Add(period * time.Duration(i) / time.Duration(p.Clients))
			for {
				if sleep := time.Until(next); sleep > 0 {
					time.Sleep(sleep)
				}
				if time.Since(start) >= p.Duration {
					return
				}
				next = next.Add(period)
				t0 := time.Now()
				_, err := c.Exec("SELECT id FROM t")
				tl.sent++
				switch {
				case err == nil:
					tl.admitted++
					tl.lat = append(tl.lat, time.Since(t0))
				case errors.Is(err, wire.ErrOverloaded):
					tl.shed++
				default:
					tl.errs++
				}
			}
		}(i, c)
	}
	wg.Wait()

	row := Row{Multiplier: multiplier, OfferedQPS: offered}
	var lat []time.Duration
	for i := range tallies {
		row.Sent += tallies[i].sent
		row.Admitted += tallies[i].admitted
		row.Shed += tallies[i].shed
		row.Errors += tallies[i].errs
		lat = append(lat, tallies[i].lat...)
	}
	row.P50 = percentile(lat, 0.50)
	row.P99 = percentile(lat, 0.99)
	return row, nil
}

// percentile returns the q-quantile of the sample (nearest-rank).
func percentile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := int(math.Ceil(q*float64(len(lat)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lat) {
		idx = len(lat) - 1
	}
	return lat[idx]
}
