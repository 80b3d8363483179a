// Command perfbench is the end-to-end benchmark of greengpud, the
// GreenGPU simulation service. It starts the daemon built from the same
// checkout, drives one workload (a traffic mix of closed-loop clients)
// against it over loopback HTTP for a fixed time, checks every answer
// against a direct in-process simulation through the public greengpu
// facade, and prints one JSON result as the last line of standard output.
//
//	perfbench -daemon PATH -workload NAME -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics: request
// latency quantiles, point throughput, and the daemon's set-up time. With
// -trace 1 it carries the per-layer ledger instead (see ledger.go) and
// writes the run's spans under -trace-dir. run.sh builds both binaries
// and is the entry point.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Fixed run shape, identical for every workload.
const (
	// setupStarts is how many times a run starts the daemon; set-up time
	// is the median, and the last instance serves the workload.
	setupStarts = 31
	// warmup runs the workload's traffic untimed before measuring, so
	// connections and the heap are in steady state.
	warmup = 2 * time.Second
)

type options struct {
	daemon   string
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceDir string
}

func main() {
	var o options
	flag.StringVar(&o.daemon, "daemon", "", "path of the greengpud binary to benchmark")
	flag.StringVar(&o.workload, "workload", "", "workload to run: simulate-warm, holistic-sweep or batch-fastpath")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "measured duration in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: report end-to-end metrics; 1: report the per-layer ledger and write spans")
	flag.StringVar(&o.traceDir, "trace-dir", "", "directory for span files when -trace 1 (empty: none)")
	flag.Parse()
	res, err := run(&o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o *options) (*result, error) {
	switch {
	case o.daemon == "":
		return nil, errors.New("-daemon is required")
	case o.seconds < 1:
		return nil, errors.New("-seconds must be at least 1")
	case o.trace != 0 && o.trace != 1:
		return nil, errors.New("-trace must be 0 or 1")
	}
	wl, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	tb, err := newTestbed()
	if err != nil {
		return nil, err
	}
	pl, err := wl.build(o.seed, wl.clients, tb)
	if err != nil {
		return nil, err
	}
	tr := &tracer{epoch: time.Now(), on: o.trace == 1}

	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	setups := make([]float64, 0, setupStarts)
	for i := 0; i < setupStarts; i++ {
		if d != nil {
			d.stop()
		}
		span := tr.begin(0, "setup")
		var took time.Duration
		d, took, err = startDaemon(o.daemon, wl.flags)
		tr.end(span)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}

	s := newSession(d.url, pl, tr)
	span := tr.begin(0, "warmup")
	for i := 0; i < pl.prefill; i++ {
		if err := s.clients[0].send(i, false); err != nil {
			return nil, err
		}
	}
	if err := s.drive(time.Now().Add(warmup), false); err != nil {
		return nil, err
	}
	tr.end(span)

	before, err := snapshot(d)
	if err != nil {
		return nil, err
	}
	span = tr.begin(0, "measure")
	tr.measure = span
	start := time.Now()
	if err := s.drive(start.Add(time.Duration(o.seconds)*time.Second), true); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	tr.end(span)
	after, err := snapshot(d)
	if err != nil {
		return nil, err
	}
	if !d.alive() {
		return nil, fmt.Errorf("greengpud exited during the run: %s", d.logs)
	}

	span = tr.begin(0, "verify")
	orc := newOracle(tb)
	correct := true
	for i, body := range s.store.first {
		if body == nil {
			continue
		}
		if err := orc.check(&pl.reqs[i], body); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", err)
			correct = false
			break
		}
	}
	tr.end(span)

	res := &result{Correct: correct && s.store.mismatches.Load() == 0, Metrics: make(map[string]metric)}
	var lat []time.Duration
	var points int
	for _, c := range s.clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
		lat = append(lat, c.lat...)
		points += c.points
		if c.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: request failed:", c.err)
		}
	}
	if res.Attempted == 0 {
		return nil, errors.New("no request completed in the measured window")
	}
	if o.trace == 0 {
		slices.Sort(lat)
		res.Metrics["latency_p50_ms"] = metric{ms(quantile(lat, 0.50)), "ms"}
		res.Metrics["latency_p99_ms"] = metric{ms(quantile(lat, 0.99)), "ms"}
		res.Metrics["throughput_points_s"] = metric{float64(points) / elapsed.Seconds(), "points/s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		return res, nil
	}
	if err := ledger(res.Metrics, tr, before, after, orc, res.Attempted, res.Failed); err != nil {
		return nil, err
	}
	if o.traceDir != "" {
		if err := tr.write(o.traceDir, wl.name, o.seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// session is the set of closed-loop clients of one run.
type session struct {
	clients []*client
	store   *bodyStore
}

func newSession(url string, pl *plan, tr *tracer) *session {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.MaxIdleConnsPerHost = len(pl.streams)
	tp.DisableCompression = true
	// The timeout only turns a hung daemon into a failed request.
	hc := &http.Client{Transport: tp, Timeout: 30 * time.Second}
	s := &session{store: &bodyStore{first: make([][]byte, len(pl.reqs))}}
	for i, next := range pl.streams {
		s.clients = append(s.clients, &client{id: i, hc: hc, url: url, pl: pl, next: next, store: s.store, tr: tr})
	}
	return s
}

// drive runs every client until the deadline and waits for all of them.
// Unrecorded (warm-up) traffic fails the run on the first error.
func (s *session) drive(until time.Time, record bool) error {
	var wg sync.WaitGroup
	errs := make([]error, len(s.clients))
	for i, c := range s.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for time.Now().Before(until) {
				if err := c.send(c.next(), record); err != nil && !record {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// client is one closed-loop client with its own request stream.
type client struct {
	id    int
	hc    *http.Client
	url   string
	pl    *plan
	next  func() int
	store *bodyStore
	tr    *tracer
	buf   bytes.Buffer

	attempted, failed int
	points            int
	lat               []time.Duration
	err               error // first failure, for the log
}

// send issues request idx, reads the whole response and checks it is
// byte-identical to the first response to the same request. When record
// is set the outcome counts toward the run's results.
func (c *client) send(idx int, record bool) error {
	r := &c.pl.reqs[idx]
	t0 := time.Now()
	resp, err := c.hc.Post(c.url+r.path, "application/json", bytes.NewReader(r.body))
	t1 := time.Now()
	t2 := t1
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		t2 = time.Now()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("POST %s %s: status %d: %s", r.path, r.body, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
		}
		if err == nil {
			err = c.store.match(idx, c.buf.Bytes())
		}
	}
	t3 := time.Now()
	if !record {
		return err
	}
	c.attempted++
	if err != nil {
		c.failed++
		if c.err == nil {
			c.err = err
		}
		return err
	}
	c.lat = append(c.lat, t2.Sub(t0))
	c.points += len(r.points)
	c.tr.request(c.id, idx, t0, t1, t2, t3)
	return nil
}

// bodyStore keeps the first response to each distinct request; every
// later response to it must be byte-identical, and the first one is
// checked against the reference simulation after the run.
type bodyStore struct {
	mu         sync.Mutex
	first      [][]byte
	mismatches atomic.Int64
}

func (b *bodyStore) match(idx int, body []byte) error {
	b.mu.Lock()
	want := b.first[idx]
	if want == nil {
		b.first[idx] = bytes.Clone(body)
		b.mu.Unlock()
		return nil
	}
	b.mu.Unlock()
	if bytes.Equal(want, body) {
		return nil
	}
	b.mismatches.Add(1)
	return fmt.Errorf("response to request %d differs from its first response", idx)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
