package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"greengpu/internal/experiments"
	"greengpu/internal/fleet"
	"greengpu/internal/jobstore"
	"greengpu/internal/runcache"
	"greengpu/internal/sweep"
	"greengpu/internal/telemetry"
)

// listenLoopback binds an ephemeral loopback port for Serve tests.
func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// safeBuffer is a mutex-guarded bytes.Buffer: Serve logs from its own
// goroutine while tests read.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newTestServer builds a daemon over the default testbed environment's
// engine, sequential and with a fresh in-memory cache.
func newTestServer(t testing.TB, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	env, err := experiments.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	env.Jobs, env.Cache = 1, cache
	cfg := Config{Engine: &env.Engine}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return srv, ts
}

// postJSON posts body and decodes the JSON response into out (skipped
// when out is nil), returning the status code.
func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestNewRequiresEngine: a Config without an engine is an error, not a
// server that dereferences nil on its first request.
func TestNewRequiresEngine(t *testing.T) {
	if srv, err := New(Config{}); err == nil {
		srv.Close()
		t.Fatal("New(Config{}) returned a server")
	}
}

func TestSimulateMatchesEngine(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	var got SimulateResponse
	if code := postJSON(t, ts.URL+"/v1/simulate",
		`{"workload":"kmeans","mode":"baseline","iterations":4}`, &got); code != 200 {
		t.Fatalf("status %d", code)
	}
	// The daemon must agree exactly with a direct engine evaluation of
	// the same configuration.
	spec := sweep.Spec{Workloads: []string{"kmeans"}, Iterations: 4,
		CPULevel: -1, CoreLevels: []int{len(srv.eng.GPU.CoreLevels) - 1},
		MemLevels: []int{len(srv.eng.GPU.MemLevels) - 1}}
	results, err := srv.eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := results[0]
	if got.ExecSeconds != want.TotalTime.Seconds() || got.EnergyJ != want.Energy.Joules() {
		t.Fatalf("daemon (%v s, %v J) != engine (%v s, %v J)",
			got.ExecSeconds, got.EnergyJ, want.TotalTime.Seconds(), want.Energy.Joules())
	}
	if !got.Fast {
		t.Error("baseline ladder point should take the closed-form fast path")
	}
	if got.Workload != "kmeans" || got.Mode != "baseline" || got.Iterations != 4 {
		t.Errorf("identity fields wrong: %+v", got)
	}
}

func TestSimulateValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"unknown workload", `{"workload":"nope"}`, 400},
		{"unknown mode", `{"workload":"kmeans","mode":"warp"}`, 400},
		{"core out of range", `{"workload":"kmeans","core":99}`, 400},
		{"negative mem", `{"workload":"kmeans","mem":-1}`, 400},
		{"negative iterations", `{"workload":"kmeans","iterations":-2}`, 400},
		{"malformed json", `{"workload":`, 400},
		{"unknown field", `{"workload":"kmeans","boost":true}`, 400},
	} {
		if code := postJSON(t, ts.URL+"/v1/simulate", tc.body, nil); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}
}

func TestSweepCSVMatchesCLITable(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	const specText = "workloads=kmeans,hotspot core=all mem=all iters=4"
	resp, err := http.Post(ts.URL+"/v1/sweep?format=csv", "application/json",
		strings.NewReader(fmt.Sprintf(`{"spec":%q}`, specText)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}

	spec, err := sweep.ParseSpec(specText)
	if err != nil {
		t.Fatal(err)
	}
	results, err := srv.eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sweep.Table(srv.eng, results).WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("daemon CSV differs from engine table:\n got: %q\nwant: %q", got, want.Bytes())
	}
}

func TestSweepJSONAndRepeatHitsCache(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	body := `{"spec":"workloads=kmeans core=all mem=all iters=4"}`
	var first SweepResponse
	if code := postJSON(t, ts.URL+"/v1/sweep", body, &first); code != 200 {
		t.Fatalf("status %d", code)
	}
	wantPoints := len(srv.eng.GPU.CoreLevels) * len(srv.eng.GPU.MemLevels)
	if len(first.Points) != wantPoints {
		t.Fatalf("got %d points, want %d", len(first.Points), wantPoints)
	}
	before := srv.eng.Cache.Stats()
	var second SweepResponse
	if code := postJSON(t, ts.URL+"/v1/sweep", body, &second); code != 200 {
		t.Fatalf("status %d", code)
	}
	delta := srv.eng.Cache.Stats().Sub(before)
	if delta.Misses != 0 || delta.Hits != uint64(wantPoints) {
		t.Errorf("repeat sweep: %d hits %d misses, want %d hits 0 misses",
			delta.Hits, delta.Misses, wantPoints)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Error("repeat sweep returned different results")
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"bad spec syntax", `{"spec":"workloads"}`, 400},
		{"unknown key", `{"spec":"turbo=1"}`, 400},
		{"unknown workload", `{"spec":"workloads=nope"}`, 400},
		{"level out of range", `{"spec":"workloads=kmeans core=99"}`, 400},
	} {
		if code := postJSON(t, ts.URL+"/v1/sweep", tc.body, nil); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}
}

// TestWorkCapRejectsBeforeEval: requests whose results would exceed
// sweep.MaxRecords iteration records are 400s on every evaluating
// endpoint, decided before admission and before any point is evaluated.
func TestWorkCapRejectsBeforeEval(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxInflight = 1 })
	for _, tc := range []struct{ name, path, body string }{
		{"simulate iterations", "/v1/simulate", `{"workload":"kmeans","iterations":100000000}`},
		{"sweep draws", "/v1/sweep", `{"spec":"draws=1000000"}`},
		{"sweep iters", "/v1/sweep", `{"spec":"workloads=kmeans core=0 mem=0 iters=100000000"}`},
		// Within the static checks; over the cap once the full ladders and
		// every profile's own iteration count are resolved.
		{"sweep resolved ladder", "/v1/sweep", `{"spec":"core=all mem=all iters=1000"}`},
		{"sweep resolved draws", "/v1/sweep", `{"spec":"draws=100000 iters=0"}`},
		{"fleet iters", "/v1/fleet", `{"spec":"nodes=1000 iters=100000000"}`},
		{"async sweep", "/v1/sweep", `{"spec":"draws=1000000","async":true}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if want := fmt.Sprint(sweep.MaxRecords); !strings.Contains(string(data), want) {
			t.Errorf("%s: error %q does not name the %s cap", tc.name, data, want)
		}
	}
	// Nothing was admitted: with a single admission slot, an ordinary
	// sweep still runs.
	if code := postJSON(t, ts.URL+"/v1/sweep", `{"spec":"workloads=kmeans draws=2 iters=2"}`, nil); code != 200 {
		t.Errorf("ordinary sweep after rejections: status %d", code)
	}
}

func TestFleetMatchesEngine(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	const specText = "nodes=500 faults=0,1"
	var got FleetResponse
	if code := postJSON(t, ts.URL+"/v1/fleet",
		fmt.Sprintf(`{"spec":%q}`, specText), &got); code != 200 {
		t.Fatalf("status %d", code)
	}
	spec, err := fleet.ParseSpec(specText)
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.fleng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary.Nodes != want.Agg.Nodes || got.Summary.EnergyJ != want.Agg.Energy.Joules() {
		t.Errorf("summary mismatch: %+v vs %+v", got.Summary, want.Agg)
	}
	if got.Summary.Groups != len(want.Groups) || len(got.Groups) != len(want.Groups) {
		t.Errorf("groups mismatch: %d vs %d", len(got.Groups), len(want.Groups))
	}

	var accepted JobResponse
	if code := postJSON(t, ts.URL+"/v1/fleet",
		fmt.Sprintf(`{"spec":%q,"async":true}`, specText), &accepted); code != 202 {
		t.Fatalf("async status %d", code)
	}
	if st := waitJob(t, ts.URL, accepted.ID); st.Status != "done" {
		t.Fatalf("async fleet ended %q (%s)", st.Status, st.Error)
	}
	job := ts.URL + "/v1/results/" + accepted.ID

	// CSV renderings, sync and async, must be byte-identical to the CLI's
	// fleet tables.
	for table, render := range map[string]func(*fleet.Result) interface {
		WriteCSV(io.Writer) error
	}{
		"groups":  func(r *fleet.Result) interface{ WriteCSV(io.Writer) error } { return fleet.GroupsTable(r) },
		"summary": func(r *fleet.Result) interface{ WriteCSV(io.Writer) error } { return fleet.SummaryTable(r) },
	} {
		resp, err := http.Post(ts.URL+"/v1/fleet?format=csv&table="+table, "application/json",
			strings.NewReader(fmt.Sprintf(`{"spec":%q}`, specText)))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var wantCSV bytes.Buffer
		if err := render(want).WriteCSV(&wantCSV); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, wantCSV.Bytes()) {
			t.Errorf("fleet %s CSV differs from CLI table", table)
		}
		if code, data := getBody(t, job+"?format=csv&table="+table); code != 200 || !bytes.Equal(data, wantCSV.Bytes()) {
			t.Errorf("async fleet %s CSV (status %d) differs from CLI table", table, code)
		}
	}
	if code := postJSON(t, ts.URL+"/v1/fleet?format=csv&table=bogus",
		fmt.Sprintf(`{"spec":%q}`, specText), nil); code != 400 {
		t.Errorf("sync table=bogus: status %d, want 400", code)
	}
	if code, _ := getBody(t, job+"?format=csv&table=bogus"); code != 400 {
		t.Errorf("async table=bogus: status %d, want 400", code)
	}
}

// TestSpecErrorsBeforeAdmission: every spec error on /v1/sweep and
// /v1/fleet, sync or async, is a 400 decided before admission — with the
// only admission slot taken — and starts or journals no job.
func TestSpecErrorsBeforeAdmission(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, func(c *Config) {
		c.MaxInflight = 1
		c.StateDir = dir
	})
	srv.sem <- struct{}{}
	for _, tc := range []struct {
		name, path, spec string
		syncOnly         bool // an async job's ?table is read from its result request
	}{
		{"sweep unknown key", "/v1/sweep", "turbo=1", false},
		{"sweep unknown workload", "/v1/sweep", "workloads=nope", false},
		{"sweep level out of range", "/v1/sweep", "workloads=kmeans core=99", false},
		{"fleet unknown class", "/v1/fleet", "nodes=10 classes=riva128", false},
		{"fleet unknown workload", "/v1/fleet", "nodes=10 workloads=nope", false},
		{"fleet all and a workload", "/v1/fleet", "nodes=10 workloads=all,kmeans", false},
		{"fleet csv unknown table", "/v1/fleet?format=csv&table=bogus", "nodes=10", true},
	} {
		for _, async := range []bool{false, true} {
			if async && tc.syncOnly {
				continue
			}
			body, err := json.Marshal(JobRequest{Spec: tc.spec, Async: async})
			if err != nil {
				t.Fatal(err)
			}
			if code := postJSON(t, ts.URL+tc.path, string(body), nil); code != 400 {
				t.Errorf("%s (async %t): status %d, want 400", tc.name, async, code)
			}
		}
	}
	<-srv.sem
	if c := srv.jobs.counts(); c != (JobCounts{}) {
		t.Errorf("rejected specs left jobs: %+v", c)
	}
	data, err := os.ReadFile(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if recs, _ := jobstore.DecodeAll(data); len(recs) != 0 {
		t.Errorf("rejected specs were journaled: %+v", recs)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var accepted JobResponse
	if code := postJSON(t, ts.URL+"/v1/sweep",
		`{"spec":"workloads=kmeans core=all iters=4","async":true}`, &accepted); code != 202 {
		t.Fatalf("status %d, want 202", code)
	}
	if accepted.ID == "" || accepted.Status != "running" {
		t.Fatalf("bad 202 body: %+v", accepted)
	}
	deadline := time.Now().Add(30 * time.Second)
	var st JobResponse
	for {
		code, data := getBody(t, ts.URL+"/v1/results/"+accepted.ID)
		if code != 200 {
			t.Fatalf("status %d: %s", code, data)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Status != "done" {
		t.Fatalf("job ended %q (%s)", st.Status, st.Error)
	}
	if len(st.Points) == 0 {
		t.Fatal("done job carries no points")
	}
	if code, _ := getBody(t, ts.URL+"/v1/results/none"); code != 404 {
		t.Errorf("unknown job: status %d, want 404", code)
	}
}

func TestAsyncJobCancel(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var accepted JobResponse
	// A Monte Carlo holistic sweep is slow enough (full simulations) to
	// still be running when the cancel lands.
	if code := postJSON(t, ts.URL+"/v1/sweep",
		`{"spec":"draws=400 mode=holistic workloads=kmeans","async":true}`, &accepted); code != 202 {
		t.Fatalf("status %d, want 202", code)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/results/"+accepted.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobResponse
		code, data := getBody(t, ts.URL+"/v1/results/"+accepted.ID)
		if code != 200 {
			t.Fatalf("status %d: %s", code, data)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status != "running" {
			// done is possible if the job finished before the cancel; the
			// expected outcome for a mid-run cancel is canceled.
			if st.Status != "canceled" && st.Status != "done" {
				t.Fatalf("job ended %q (%s)", st.Status, st.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("canceled job never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelReleasesSlotAndCache is the request-scoped cancellation
// contract: a client disconnect mid-sweep releases the admission slot,
// leaves no partial cache entries, and the same spec then evaluates
// cleanly to the same bytes an undisturbed engine produces.
func TestCancelReleasesSlotAndCache(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.MaxInflight = 1 })
	const specText = "draws=400 mode=holistic workloads=kmeans,hotspot"
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep",
		strings.NewReader(fmt.Sprintf(`{"spec":%q}`, specText)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Give the sweep a moment to start, then vanish like a real client.
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-done; err == nil {
		t.Log("request completed before the cancel landed; slot/cache checks still apply")
	}

	// The admission slot (capacity 1) must come back: a follow-up sweep
	// gets admitted rather than shed with 503.
	deadline := time.Now().Add(30 * time.Second)
	for {
		code := postJSON(t, ts.URL+"/v1/sweep", `{"spec":"workloads=kmeans core=all iters=4"}`, nil)
		if code == 200 {
			break
		}
		if code != 503 {
			t.Fatalf("follow-up sweep: status %d", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("admission slot never released after cancellation")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// No partial entries: every cached point replays the full result. A
	// fresh engine (no cache) evaluates a draw subset and must agree
	// byte-for-byte with a warm daemon evaluation of the same spec.
	spec, err := sweep.ParseSpec("draws=20 mode=holistic workloads=kmeans")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := srv.eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	pristine := *srv.eng
	pristine.Cache = nil
	want, err := pristine.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := sweep.Table(srv.eng, warm).WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := sweep.Table(&pristine, want).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("cache state after cancellation diverges from a pristine engine")
	}
}

// TestAdmissionControl: sweeps and single points alike are shed with 503,
// and counted, while max-inflight evaluations run, and admitted once a
// slot frees. A request that fails validation is a 400 even then.
func TestAdmissionControl(t *testing.T) {
	defer telemetry.Disable()
	telemetry.Enable()
	srv, ts := newTestServer(t, func(c *Config) { c.MaxInflight = 1 })
	const simulate = `{"workload":"kmeans","mode":"holistic","iterations":2}`
	// Fill the only slot manually, then watch a sweep and a point get shed.
	srv.sem <- struct{}{}
	shed := metricShed.Value()
	if code := postJSON(t, ts.URL+"/v1/sweep", `{"spec":"workloads=kmeans"}`, nil); code != 503 {
		t.Fatalf("status %d, want 503", code)
	}
	if code := postJSON(t, ts.URL+"/v1/simulate", simulate, nil); code != 503 {
		t.Fatalf("simulate: status %d, want 503", code)
	}
	if code := postJSON(t, ts.URL+"/v1/simulate", `{"workload":"nope"}`, nil); code != 400 {
		t.Errorf("unknown workload at capacity: status %d, want 400", code)
	}
	if got := metricShed.Value() - shed; got != 2 {
		t.Errorf("shed counter rose by %d, want 2", got)
	}
	<-srv.sem
	if code := postJSON(t, ts.URL+"/v1/sweep", `{"spec":"workloads=kmeans core=all iters=4"}`, nil); code != 200 {
		t.Fatalf("after release: status %d, want 200", code)
	}
	if code := postJSON(t, ts.URL+"/v1/simulate", simulate, nil); code != 200 {
		t.Fatalf("simulate after release: status %d, want 200", code)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	if code := postJSON(t, ts.URL+"/v1/sweep", `{"spec":"workloads=kmeans core=all iters=4"}`, nil); code != 200 {
		t.Fatalf("sweep status %d", code)
	}
	code, data := getBody(t, ts.URL+"/v1/stats")
	if code != 200 {
		t.Fatalf("stats status %d", code)
	}
	var st StatsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache == nil || st.Cache.Misses == 0 {
		t.Errorf("stats should report cache misses after a sweep: %s", data)
	}
	if st.MaxInflight != DefaultMaxInflight || st.InflightHeavy != 0 {
		t.Errorf("admission state wrong: %+v", st)
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != 200 {
		t.Errorf("healthz status %d", code)
	}
	srv.draining.Store(true)
	if code, _ := getBody(t, ts.URL+"/healthz"); code != 503 {
		t.Errorf("draining healthz status %d, want 503", code)
	}
	srv.draining.Store(false)
}

func TestMetricsEndpoint(t *testing.T) {
	defer telemetry.Disable()
	telemetry.Enable()
	_, ts := newTestServer(t, nil)
	if code := postJSON(t, ts.URL+"/v1/simulate", `{"workload":"kmeans","iterations":4}`, nil); code != 200 {
		t.Fatalf("simulate status %d", code)
	}
	code, data := getBody(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	text := string(data)
	for _, want := range []string{
		"# TYPE greengpu_daemon_requests_total counter",
		"greengpu_daemon_simulate_requests_total",
		"greengpu_daemon_request_seconds_bucket",
		"greengpu_daemon_inflight_requests",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestFlightRecorderEndpoint(t *testing.T) {
	defer telemetry.Disable()
	defer telemetry.SetFlightRecorder(nil)
	rec := telemetry.NewFlightRecorder(64)
	telemetry.SetFlightRecorder(rec)
	telemetry.Enable()
	_, ts := newTestServer(t, nil)
	// A holistic run exercises the DVFS controller, which stamps epochs.
	if code := postJSON(t, ts.URL+"/v1/simulate", `{"workload":"kmeans","mode":"holistic"}`, nil); code != 200 {
		t.Fatalf("simulate status %d", code)
	}
	code, data := getBody(t, ts.URL+"/v1/flightrecorder?workload=kmeans&last=5")
	if code != 200 {
		t.Fatalf("status %d: %s", code, data)
	}
	var fr FlightRecorderResponse
	if err := json.Unmarshal(data, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Cap != 64 || fr.Total == 0 || len(fr.Records) == 0 || len(fr.Records) > 5 {
		t.Errorf("bad flight recorder response: cap=%d total=%d records=%d", fr.Cap, fr.Total, len(fr.Records))
	}
	for _, r := range fr.Records {
		if r.Workload != "kmeans" {
			t.Errorf("filter leaked workload %q", r.Workload)
		}
	}
	if code, _ := getBody(t, ts.URL+"/v1/flightrecorder?last=x"); code != 400 {
		t.Errorf("bad last: status %d, want 400", code)
	}
}

func TestFlightRecorderDisabled(t *testing.T) {
	_, ts := newTestServer(t, nil)
	if code, _ := getBody(t, ts.URL+"/v1/flightrecorder"); code != 404 {
		t.Errorf("status %d, want 404", code)
	}
}

func TestUnknownEndpointAndMethod(t *testing.T) {
	_, ts := newTestServer(t, nil)
	if code, _ := getBody(t, ts.URL+"/v2/nothing"); code != 404 {
		t.Errorf("unknown path: status %d, want 404", code)
	}
	resp, err := http.Get(ts.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET simulate: status %d, want 405", resp.StatusCode)
	}
}

func TestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 64 })
	big := fmt.Sprintf(`{"spec":%q}`, strings.Repeat("x", 200))
	if code := postJSON(t, ts.URL+"/v1/sweep", big, nil); code != 413 {
		t.Errorf("oversized body: status %d, want 413", code)
	}
}

// TestServeGracefulDrain exercises Serve directly: cancel while an async
// job runs, and the daemon must drain it to completion and return nil.
func TestServeGracefulDrain(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	var logs safeBuffer
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln, 30*time.Second, &logs) }()
	base := "http://" + ln.Addr().String()

	var accepted JobResponse
	if code := postJSON(t, base+"/v1/sweep",
		`{"spec":"workloads=kmeans core=all iters=4","async":true}`, &accepted); code != 202 {
		t.Fatalf("status %d", code)
	}
	stop()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil after clean drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not drain in time")
	}
	if got := logs.String(); !strings.Contains(got, "draining") || !strings.Contains(got, "jobs at exit") {
		t.Errorf("drain logs missing flush lines:\n%s", got)
	}
	// The job must have drained to done, not been abandoned.
	if c := srv.jobs.counts(); c.Running != 0 || c.Done != 1 {
		t.Errorf("jobs after drain: %+v, want the one job done", c)
	}
}
