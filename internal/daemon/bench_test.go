package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"greengpu/internal/sweep"
	"greengpu/internal/telemetry"
)

// Daemon load benchmarks: real HTTP over loopback against a warm run
// cache, the capacity-planning numbers docs/SERVICE.md cites, and the
// sweep handler, and its JSON writer alone, in process on a daemon
// without a run cache. All report
// throughput via b.ReportMetric so cmd/benchjson can gate on it:
//
//   - req/s     completed HTTP requests per second
//   - points/s  simulation points served per second (the sweep endpoint
//     amortizes HTTP overhead across its whole batch, so its points/s
//     is the daemon's true point-serving capacity)
//
// No -benchmem here: HTTP handler allocation counts are scheduler-
// dependent and would make an alloc gate flaky.

// benchClient is a keep-alive client sized for the benchmark's
// concurrency so connection churn doesn't dominate.
func benchClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 256
	return &http.Client{Transport: tr}
}

func benchPost(b *testing.B, c *http.Client, url, body string) {
	resp, err := c.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkDaemonSimulateWarm serves repeat POST /v1/simulate points
// from the warm cache — the per-request floor of the HTTP path.
func BenchmarkDaemonSimulateWarm(b *testing.B) {
	_, ts := newTestServer(b, nil)
	c := benchClient()
	const body = `{"workload":"kmeans","mode":"baseline","iterations":4}`
	benchPost(b, c, ts.URL+"/v1/simulate", body) // warm the run cache
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchPost(b, c, ts.URL+"/v1/simulate", body)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkDaemonSweepWarm serves repeat POST /v1/sweep batches from the
// warm cache. points/s is requests/s times the batch size — the
// headline point-requests-per-second capacity.
func BenchmarkDaemonSweepWarm(b *testing.B) {
	_, ts := newTestServer(b, nil)
	c := benchClient()
	body := `{"spec":"workloads=kmeans,hotspot core=all mem=all iters=4"}`

	// Warm the cache and learn the batch size from the response.
	var warm SweepResponse
	resp, err := c.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("warmup status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &warm); err != nil {
		b.Fatalf("decode %q: %v", data, err)
	}
	points := len(warm.Points)
	if points == 0 {
		b.Fatal("warmup returned no points")
	}

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchPost(b, c, ts.URL+"/v1/sweep", body)
		}
	})
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	b.ReportMetric(float64(b.N)/secs, "req/s")
	b.ReportMetric(float64(b.N*points)/secs, "points/s")
}

// discardResponse is a ResponseWriter that keeps only the status, so an
// in-process benchmark measures the handler and not a recorder's buffer.
type discardResponse struct {
	header http.Header
	status int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(status int)      { d.status = status }

// BenchmarkDaemonSweepUncached serves the 324-point baseline ladder of
// every workload at 4 iterations through ServeHTTP, in process, on a
// daemon without a run cache and with telemetry on, as greengpud runs:
// every point takes the closed-form evaluator and the response the sweep
// JSON writer. With no transport and one worker, ns/op is the handler's
// own cost per request.
func BenchmarkDaemonSweepUncached(b *testing.B) {
	defer telemetry.Disable()
	telemetry.Enable()
	srv, _ := newTestServer(b, func(c *Config) { c.Engine.Cache = nil })
	const specText = "workloads=all core=all mem=all iters=4"
	spec, err := sweep.ParseSpec(specText)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := srv.eng.Plan(spec)
	if err != nil {
		b.Fatal(err)
	}
	body := []byte(`{"spec":"` + specText + `"}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &discardResponse{header: http.Header{}}
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
		if w.status != 0 && w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(plan.Points)*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkDaemonSweepRender renders the results of
// BenchmarkDaemonSweepUncached's 324-point sweep into a reused buffer: the
// sync /v1/sweep writer alone, with no evaluation and no HTTP.
func BenchmarkDaemonSweepRender(b *testing.B) {
	srv, _ := newTestServer(b, func(c *Config) { c.Engine.Cache = nil })
	const specText = "workloads=all core=all mem=all iters=4"
	spec, err := sweep.ParseSpec(specText)
	if err != nil {
		b.Fatal(err)
	}
	results, err := srv.eng.Run(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = srv.appendSweep(buf[:0], specText, results); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(results)*b.N)/b.Elapsed().Seconds(), "points/s")
}
