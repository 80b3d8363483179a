// Package daemon implements greengpud, the long-lived simulation-as-a-
// service HTTP server (see docs/SERVICE.md for the full API reference).
//
// The daemon wraps the same engine stack the one-shot CLIs use — the
// batch sweep engine, the fleet engine, the shared run cache and the
// internal/parallel worker pool — behind an HTTP/JSON API:
//
//	POST /v1/simulate        one point through the batch evaluator
//	POST /v1/sweep           a sweep.ParseSpec batch (sync or async)
//	POST /v1/fleet           a fleet.ParseSpec fleet (sync or async)
//	GET  /v1/results/{id}    async job status and results
//	DELETE /v1/results/{id}  cancel an async job
//	GET  /v1/flightrecorder  recent DVFS-epoch records, filtered
//	GET  /v1/stats           run-cache and job counters
//	GET  /metrics            live Prometheus registry
//	GET  /healthz            liveness (503 while draining)
//
// Results are byte-identical to the equivalent cmd/experiments
// invocation: the CSV renderings (?format=csv) come from the same
// trace.Table writers, and the engines are deterministic at any worker
// count. Sync requests run under the request's context, so a client
// disconnect cancels unstarted points; started points always complete,
// which is why an attached run cache never holds partial entries.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"greengpu/internal/core"
	"greengpu/internal/fleet"
	"greengpu/internal/iofault"
	"greengpu/internal/jobstore"
	"greengpu/internal/runcache"
	"greengpu/internal/sweep"
	"greengpu/internal/telemetry"
	"greengpu/internal/trace"
	"greengpu/internal/workload"
)

// Package metrics (see docs/OBSERVABILITY.md "Daemon"). No-ops unless
// telemetry is enabled; cmd/greengpud enables it at startup so /metrics
// is live.
var (
	metricRequests = telemetry.NewCounter("greengpu_daemon_requests_total",
		"HTTP requests received, all endpoints.")
	metricErrors = telemetry.NewCounter("greengpu_daemon_errors_total",
		"HTTP requests answered with a 4xx or 5xx status.")
	metricInflight = telemetry.NewGauge("greengpu_daemon_inflight_requests",
		"HTTP requests currently being served.")
	metricSeconds = telemetry.NewHistogram("greengpu_daemon_request_seconds",
		"HTTP request service time in seconds.",
		telemetry.ExpBuckets(1e-5, 4, 12))
	metricSimulate = telemetry.NewCounter("greengpu_daemon_simulate_requests_total",
		"POST /v1/simulate requests received.")
	metricSweep = telemetry.NewCounter("greengpu_daemon_sweep_requests_total",
		"POST /v1/sweep requests received.")
	metricFleet = telemetry.NewCounter("greengpu_daemon_fleet_requests_total",
		"POST /v1/fleet requests received.")
	metricResults = telemetry.NewCounter("greengpu_daemon_results_requests_total",
		"GET and DELETE /v1/results/{id} requests received.")
	metricFlightReq = telemetry.NewCounter("greengpu_daemon_flightrecorder_requests_total",
		"GET /v1/flightrecorder requests received.")
	metricStatsReq = telemetry.NewCounter("greengpu_daemon_stats_requests_total",
		"GET /v1/stats and /healthz requests received.")
	metricScrapes = telemetry.NewCounter("greengpu_daemon_metrics_requests_total",
		"GET /metrics scrapes received.")
	metricJobs = telemetry.NewCounter("greengpu_daemon_jobs_total",
		"Async jobs accepted (sweep and fleet requests with async=true).")
	metricCanceled = telemetry.NewCounter("greengpu_daemon_canceled_total",
		"Sync requests or async jobs canceled before completion.")
	metricShed = telemetry.NewCounter("greengpu_daemon_shed_total",
		"Evaluating requests rejected with 503 because max-inflight evaluations were already running.")
	metricJobsList = telemetry.NewCounter("greengpu_daemon_jobs_list_requests_total",
		"GET /v1/jobs requests received.")
	metricRecovered = telemetry.NewCounter("greengpu_daemon_recovered_jobs_total",
		"Pending async jobs re-executed from the journal after a restart.")
)

// Config assembles a Server. Engine is required; everything else has a
// usable zero value.
type Config struct {
	// Engine evaluates every request, built by sweep.New on the devices
	// and calibrated workloads the daemon serves. Its Jobs bound each
	// request's worker-pool fan-out; its Cache, when non-nil, memoizes
	// points across requests and clients under the same fingerprints the
	// CLIs use, single-flighting concurrent requests for the same point
	// onto one computation. Fleets run under the same Jobs, Cache and
	// FaultPlan. The daemon never changes the engine, and the caller must
	// not once New has it.
	Engine *sweep.Engine

	// MaxInflight bounds concurrently admitted evaluations (simulate
	// points, and sweeps and fleets, sync or async); excess requests are
	// shed with 503. A request is admitted only after it validated, so
	// malformed requests are 400s at any load. 0 selects
	// DefaultMaxInflight.
	MaxInflight int

	// MaxBodyBytes bounds request bodies; 0 selects DefaultMaxBodyBytes.
	MaxBodyBytes int64

	// StateDir, when non-empty, makes async jobs durable: accepted specs
	// are journaled (fsynced, CRC-framed) under this directory before the
	// 202 is returned, and New re-executes any job that had no terminal
	// record — deterministic replay through the engines and the run cache
	// makes the recovered results byte-identical to an uninterrupted run.
	// Empty keeps the pre-journal behavior: jobs die with the process.
	StateDir string

	// StateFS overrides the filesystem under the job journal; nil selects
	// the real disk. Fault-injection tests thread an iofault.FaultFS here.
	StateFS iofault.FS
}

// Defaults for the zero values of Config's limits.
const (
	DefaultMaxInflight  = 64
	DefaultMaxBodyBytes = 1 << 20
)

// Server is the daemon's HTTP handler plus its execution state: the
// shared engines, the admission limiter, and the async job store. Create
// one with New; it is safe for concurrent use.
type Server struct {
	cfg   Config
	eng   *sweep.Engine
	fleng *fleet.Engine
	mux   *http.ServeMux
	jobs  *jobStore
	sem   chan struct{}

	// mhz holds the ladders' MHz members of a sweep point's JSON, and
	// names each profile's name as a JSON string, built once for
	// writeSweep.
	mhz   ladderMHz
	names map[string][]byte

	// journal persists async jobs when Config.StateDir is set; nil
	// otherwise. recovered counts the pending jobs re-executed at New.
	journal   *jobstore.Journal
	recovered int

	// baseCtx parents every async job and is installed as the HTTP
	// server's base context, so cancel aborts all remaining work when a
	// drain deadline expires.
	baseCtx context.Context
	cancel  context.CancelFunc

	// bg tracks detached async jobs; Serve waits on it while draining.
	bg sync.WaitGroup
	// draining flips when a graceful shutdown starts, turning /healthz
	// into a 503 so load balancers stop routing here.
	draining atomic.Bool
}

// New wires up the routes over the engine every /v1/simulate request and
// every sweep evaluates through, and recovers pending async jobs.
func New(cfg Config) (*Server, error) {
	eng := cfg.Engine
	if eng == nil {
		return nil, errors.New("daemon: Config.Engine is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	mhz, err := newLadderMHz(&eng.GPU, &eng.CPU)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		eng:     eng,
		fleng:   &fleet.Engine{Jobs: eng.Jobs, Cache: eng.Cache, FaultPlan: eng.FaultPlan},
		mux:     http.NewServeMux(),
		jobs:    newJobStore(),
		sem:     make(chan struct{}, cfg.MaxInflight),
		mhz:     mhz,
		names:   jsonNames(eng.Profiles),
		baseCtx: ctx,
		cancel:  cancel,
	}
	if cfg.StateDir != "" {
		journal, pending, err := jobstore.Open(cfg.StateDir, cfg.StateFS)
		if err != nil {
			cancel()
			return nil, err
		}
		s.journal = journal
		// Bound journal growth to the live job set; a failed compaction
		// leaves the (valid, larger) journal in place and is not fatal.
		_ = journal.Compact(pending)
		s.recoverJobs(pending)
	}
	s.route("POST /v1/simulate", metricSimulate, s.handleSimulate)
	s.route("POST /v1/sweep", metricSweep, s.handleJob(jobSweep))
	s.route("POST /v1/fleet", metricFleet, s.handleJob(jobFleet))
	s.route("GET /v1/jobs", metricJobsList, s.handleJobs)
	s.route("GET /v1/results/{id}", metricResults, s.handleResultGet)
	s.route("DELETE /v1/results/{id}", metricResults, s.handleResultDelete)
	s.route("GET /v1/flightrecorder", metricFlightReq, s.handleFlightRecorder)
	s.route("GET /v1/stats", metricStatsReq, s.handleStats)
	s.route("GET /healthz", metricStatsReq, s.handleHealthz)
	s.mux.Handle("GET /metrics", s.instrument(metricScrapes, telemetry.Default.Handler().ServeHTTP))
	// The catch-all gives unknown paths a JSON 404 and wrong-method
	// requests on known paths a 405 (a plain "/" pattern would otherwise
	// shadow the mux's own method matching).
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		metricRequests.Inc()
		if allow := allowedMethods(r.URL.Path); allow != "" {
			w.Header().Set("Allow", allow)
			writeError(w, http.StatusMethodNotAllowed,
				fmt.Sprintf("%s does not allow %s (allowed: %s)", r.URL.Path, r.Method, allow))
			return
		}
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such endpoint %s (see docs/SERVICE.md)", r.URL.Path))
	})
	return s, nil
}

// allowedMethods returns the Allow header value for a known endpoint
// path, or "" for an unknown one.
func allowedMethods(path string) string {
	switch path {
	case "/v1/simulate", "/v1/sweep", "/v1/fleet":
		return "POST"
	case "/v1/jobs", "/v1/flightrecorder", "/v1/stats", "/healthz", "/metrics":
		return "GET"
	}
	if strings.HasPrefix(path, "/v1/results/") {
		return "GET, DELETE"
	}
	return ""
}

// ServeHTTP dispatches to the daemon's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels every async job and sync request still running and
// closes the job journal. Serve performs a graceful variant; Close is
// the teardown for tests and for drain deadlines.
func (s *Server) Close() {
	s.cancel()
	if s.journal != nil {
		_ = s.journal.Close()
	}
}

// route registers h wrapped in the standard instrumentation.
func (s *Server) route(pattern string, c *telemetry.Counter, h http.HandlerFunc) {
	s.mux.Handle(pattern, s.instrument(c, h))
}

// instrument counts the request against the endpoint counter and the
// process totals, tracks in-flight requests, observes service time, and
// counts error responses. With telemetry disabled the only overhead is
// the instruments' own atomic-load fast paths.
func (s *Server) instrument(c *telemetry.Counter, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !telemetry.Enabled() {
			h(w, r)
			return
		}
		metricRequests.Inc()
		c.Inc()
		metricInflight.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		metricSeconds.Observe(time.Since(start).Seconds())
		metricInflight.Add(-1)
		if sw.status >= 400 {
			metricErrors.Inc()
		}
	})
}

// statusWriter captures the response status for the error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

// writeError sends the standard JSON error envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: msg})
}

// writeJSON sends v as the 200 response.
func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

// writeJSONStatus sends v with the given status, in the bytes
// json.NewEncoder(w).Encode(v) writes. It encodes before it writes
// anything: a value encoding/json rejects (a NaN or ±Inf float) answers
// 500 with the error envelope and nothing else.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

// decodeBody decodes the request body into v under the configured size
// limit, reporting malformed JSON as 400 and an oversized body as 413.
// The bool reports whether decoding succeeded (the error response has
// been written otherwise).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, "malformed request body: "+err.Error())
		return false
	}
	return true
}

// acquire admits one validated evaluating request, or sheds it with 503
// when MaxInflight evaluations are already running. The caller must
// invoke the release function exactly once when admitted.
func (s *Server) acquire(w http.ResponseWriter) (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
		metricShed.Inc()
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("server at capacity (%d evaluations in flight); retry later", cap(s.sem)))
		return nil, false
	}
}

// SimulateRequest is the POST /v1/simulate body: one workload at one
// explicit configuration. Omitted levels select the peak of their ladder
// (the best-performance baseline); for controller modes the levels are
// the starting point, exactly like core.Config.InitialLevels.
type SimulateRequest struct {
	Workload   string `json:"workload"`
	Mode       string `json:"mode,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
	Core       *int   `json:"core,omitempty"`
	Mem        *int   `json:"mem,omitempty"`
	CPU        *int   `json:"cpu,omitempty"`
}

// SimulateResponse is the POST /v1/simulate result: the resolved
// configuration plus the run's scalar outcomes.
type SimulateResponse struct {
	Workload    string  `json:"workload"`
	Mode        string  `json:"mode"`
	Iterations  int     `json:"iterations"`
	Core        int     `json:"core"`
	Mem         int     `json:"mem"`
	CPU         int     `json:"cpu"`
	CoreMHz     float64 `json:"core_mhz"`
	MemMHz      float64 `json:"mem_mhz"`
	CPUMHz      float64 `json:"cpu_mhz"`
	ExecSeconds float64 `json:"exec_s"`
	EnergyJ     float64 `json:"energy_j"`
	EnergyGPUJ  float64 `json:"energy_gpu_j"`
	EnergyCPUJ  float64 `json:"energy_cpu_j"`
	EDP         float64 `json:"edp_js"`
	FinalRatio  float64 `json:"final_ratio"`
	DVFSSteps   int     `json:"dvfs_steps"`
	// Fast reports whether the closed-form batch evaluator produced the
	// result (false: full simulation, possibly via the run cache).
	Fast bool `json:"fast"`
}

// handleSimulate evaluates one point through the engine: the
// closed-form fast path for baseline ladder points, full simulation
// otherwise, memoized in the shared run cache either way. A validated
// request takes an admission slot like a sweep: a holistic point at the
// iteration cap simulates for seconds.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if _, err := workload.ByName(s.eng.Profiles, req.Workload); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	mode := core.Baseline
	if req.Mode != "" {
		var err error
		if mode, err = core.ParseMode(req.Mode); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	if req.Iterations < 0 {
		writeError(w, http.StatusBadRequest, "iterations must be non-negative")
		return
	}
	if req.Iterations > sweep.MaxRecords {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("iterations %d exceeds the %d iteration-record cap", req.Iterations, sweep.MaxRecords))
		return
	}
	lv := core.Levels{
		Core: len(s.eng.GPU.CoreLevels) - 1,
		Mem:  len(s.eng.GPU.MemLevels) - 1,
		CPU:  len(s.eng.CPU.PStates) - 1,
	}
	for _, sel := range []struct {
		req  *int
		dst  *int
		n    int
		name string
	}{
		{req.Core, &lv.Core, len(s.eng.GPU.CoreLevels), "core"},
		{req.Mem, &lv.Mem, len(s.eng.GPU.MemLevels), "mem"},
		{req.CPU, &lv.CPU, len(s.eng.CPU.PStates), "cpu"},
	} {
		if sel.req == nil {
			continue
		}
		if *sel.req < 0 || *sel.req >= sel.n {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("%s level %d out of range [0,%d)", sel.name, *sel.req, sel.n))
			return
		}
		*sel.dst = *sel.req
	}
	cfg := core.DefaultConfig(mode)
	cfg.Iterations = req.Iterations
	cfg.InitialLevels = &lv
	release, ok := s.acquire(w)
	if !ok {
		return
	}
	defer release()
	res, fast, err := s.eng.Eval(req.Workload, cfg)
	if err != nil {
		// The engine rejects unknown workloads and invalid configs before
		// simulating; anything it reports is a request problem.
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, SimulateResponse{
		Workload:    res.Workload,
		Mode:        res.Mode.String(),
		Iterations:  len(res.Iterations),
		Core:        lv.Core,
		Mem:         lv.Mem,
		CPU:         lv.CPU,
		CoreMHz:     s.eng.GPU.CoreLevels[lv.Core].MHz(),
		MemMHz:      s.eng.GPU.MemLevels[lv.Mem].MHz(),
		CPUMHz:      s.eng.CPU.PStates[lv.CPU].Frequency.MHz(),
		ExecSeconds: res.TotalTime.Seconds(),
		EnergyJ:     res.Energy.Joules(),
		EnergyGPUJ:  res.EnergyGPU.Joules(),
		EnergyCPUJ:  res.EnergyCPU.Joules(),
		EDP:         res.Energy.Joules() * res.TotalTime.Seconds(),
		FinalRatio:  res.FinalRatio,
		DVFSSteps:   res.DVFSSteps,
		Fast:        fast,
	})
}

// JobRequest is the POST /v1/sweep and /v1/fleet body: a mini-language
// spec (sweep.ParseSpec or fleet.ParseSpec) plus the async switch.
type JobRequest struct {
	Spec string `json:"spec"`
	// Async detaches the evaluation into a job: the response is 202 with
	// the job id, results arrive via GET /v1/results/{id}.
	Async bool `json:"async,omitempty"`
}

// SweepPoint is one evaluated sweep point in a JSON response. Ladder
// points carry level indices and frequencies; Monte Carlo draw points
// carry draw >= 0 and levels of -1.
type SweepPoint struct {
	Workload    string  `json:"workload"`
	Draw        int     `json:"draw"`
	Core        int     `json:"core"`
	Mem         int     `json:"mem"`
	CPU         int     `json:"cpu"`
	CoreMHz     float64 `json:"core_mhz,omitempty"`
	MemMHz      float64 `json:"mem_mhz,omitempty"`
	CPUMHz      float64 `json:"cpu_mhz,omitempty"`
	ExecSeconds float64 `json:"exec_s"`
	EnergyJ     float64 `json:"energy_j"`
	EnergyGPUJ  float64 `json:"energy_gpu_j"`
	EnergyCPUJ  float64 `json:"energy_cpu_j"`
	Fast        bool    `json:"fast"`
}

// SweepResponse is the sync POST /v1/sweep result: every point of the
// spec, in the engine's deterministic expansion order (sweep.Plan).
type SweepResponse struct {
	Spec   string       `json:"spec"`
	Points []SweepPoint `json:"points"`
}

// sweepPoints converts engine results to the JSON shape.
func (s *Server) sweepPoints(results []sweep.PointResult) []SweepPoint {
	pts := make([]SweepPoint, len(results))
	for i, pr := range results {
		p := SweepPoint{
			Workload:    pr.Workload,
			Draw:        pr.Draw,
			Core:        pr.Core,
			Mem:         pr.Mem,
			CPU:         pr.CPU,
			ExecSeconds: pr.TotalTime.Seconds(),
			EnergyJ:     pr.Energy.Joules(),
			EnergyGPUJ:  pr.EnergyGPU.Joules(),
			EnergyCPUJ:  pr.EnergyCPU.Joules(),
			Fast:        pr.Fast,
		}
		if pr.Draw < 0 {
			p.CoreMHz = s.eng.GPU.CoreLevels[pr.Core].MHz()
			p.MemMHz = s.eng.GPU.MemLevels[pr.Mem].MHz()
			p.CPUMHz = s.eng.CPU.PStates[pr.CPU].Frequency.MHz()
		}
		pts[i] = p
	}
	return pts
}

// prepared is a sweep or fleet spec that parsed and validated against the
// engines: the one form in which a sync request, an async job and a job
// recovered from the journal reach evaluation.
type prepared struct {
	kind, spec string
	plan       sweep.Plan // kind jobSweep
	fleet      fleet.Spec // kind jobFleet
}

// prepare parses and fully validates a spec of the given kind; the
// request is usable only when the error is nil. Every error is the
// spec's: a live request answers it with 400 before admission, and a
// recovered job is journaled as failed.
func (s *Server) prepare(kind, spec string) (*prepared, error) {
	p := &prepared{kind: kind, spec: spec}
	var err error
	switch kind {
	case jobSweep:
		var sp sweep.Spec
		if sp, err = sweep.ParseSpec(spec); err == nil {
			p.plan, err = s.eng.Plan(sp)
		}
	case jobFleet:
		p.fleet, err = fleet.ParseSpec(spec)
	default:
		err = fmt.Errorf("unknown job kind %q", kind)
	}
	return p, err
}

// outcome is an evaluated request: a sweep's points, or a fleet's result
// (non-nil exactly for a fleet).
type outcome struct {
	points []sweep.PointResult
	fleet  *fleet.Result
}

// run evaluates a prepared request under ctx.
func (s *Server) run(ctx context.Context, p *prepared) (outcome, error) {
	if p.kind == jobFleet {
		res, err := s.fleng.Run(ctx, p.fleet)
		return outcome{fleet: res}, err
	}
	points, err := p.plan.Run(ctx)
	return outcome{points: points}, err
}

// handleJob serves POST /v1/sweep and /v1/fleet, for specs of the given
// kind: decode, prepare (400 on any spec error, or on a sync fleet CSV's
// unknown ?table), admission (503 when full), then an async job, or a sync
// run under the request context — a client disconnect cancels unstarted
// points — rendered as JSON or, with ?format=csv, exactly the bytes
// cmd/experiments -sweep or -fleet -out writes for the same spec.
func (s *Server) handleJob(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req JobRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		p, err := s.prepare(kind, req.Spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		csv := r.URL.Query().Get("format") == "csv"
		if kind == jobFleet && !req.Async && csv && fleetTable(r) == nil {
			writeError(w, http.StatusBadRequest, errFleetTable)
			return
		}
		release, ok := s.acquire(w)
		if !ok {
			return
		}
		if req.Async {
			s.startJob(w, p, release)
			return
		}
		defer release()
		out, err := s.run(r.Context(), p)
		if err != nil {
			s.evalError(w, r, err)
			return
		}
		switch {
		case csv:
			s.writeCSV(w, r, out)
		case out.fleet != nil:
			writeJSON(w, fleetResponse(req.Spec, out.fleet))
		default:
			s.writeSweep(w, req.Spec, out.points)
		}
	}
}

// FleetGroup is one distinct node configuration in a fleet response,
// mirroring the columns of fleet.GroupsTable.
type FleetGroup struct {
	Class           string  `json:"class"`
	Workload        string  `json:"workload"`
	Mode            string  `json:"mode"`
	FaultLevel      int     `json:"fault_level"`
	Nodes           int     `json:"nodes"`
	Fast            bool    `json:"fast"`
	ExecSeconds     float64 `json:"exec_s"`
	EnergyJ         float64 `json:"energy_j"`
	EnergyGPUJ      float64 `json:"energy_gpu_j"`
	EnergyCPUJ      float64 `json:"energy_cpu_j"`
	DeadlineSeconds float64 `json:"deadline_s"`
	Miss            bool    `json:"miss"`
}

// FleetSummary carries the fleet-wide aggregates, mirroring the columns
// of fleet.SummaryTable.
type FleetSummary struct {
	Nodes          int     `json:"nodes"`
	Groups         int     `json:"groups"`
	DedupRatio     float64 `json:"dedup_ratio"`
	EnergyJ        float64 `json:"energy_j"`
	EnergyGPUJ     float64 `json:"energy_gpu_j"`
	EnergyCPUJ     float64 `json:"energy_cpu_j"`
	WallSeconds    float64 `json:"wall_s"`
	EDP            float64 `json:"edp_js"`
	DeadlineMisses uint64  `json:"deadline_misses"`
	FaultsTotal    uint64  `json:"faults_total"`
}

// FleetResponse is the sync POST /v1/fleet result.
type FleetResponse struct {
	Spec    string       `json:"spec"`
	Groups  []FleetGroup `json:"groups"`
	Summary FleetSummary `json:"summary"`
}

// fleetResponse converts a fleet result to the JSON shape.
func fleetResponse(specText string, res *fleet.Result) FleetResponse {
	out := FleetResponse{
		Spec:   specText,
		Groups: make([]FleetGroup, len(res.Groups)),
		Summary: FleetSummary{
			Nodes:          res.Agg.Nodes,
			Groups:         len(res.Groups),
			DedupRatio:     res.DedupRatio(),
			EnergyJ:        res.Agg.Energy.Joules(),
			EnergyGPUJ:     res.Agg.EnergyGPU.Joules(),
			EnergyCPUJ:     res.Agg.EnergyCPU.Joules(),
			WallSeconds:    res.Agg.Wall.Seconds(),
			EDP:            res.Agg.EDP,
			DeadlineMisses: res.Agg.DeadlineMisses,
			FaultsTotal:    res.Agg.Faults.Total(),
		},
	}
	for i := range res.Groups {
		g := &res.Groups[i]
		out.Groups[i] = FleetGroup{
			Class:           g.Class,
			Workload:        g.Workload,
			Mode:            g.Mode.String(),
			FaultLevel:      g.FaultLevel,
			Nodes:           g.Count,
			Fast:            g.Fast,
			ExecSeconds:     g.Result.TotalTime.Seconds(),
			EnergyJ:         g.Result.Energy.Joules(),
			EnergyGPUJ:      g.Result.EnergyGPU.Joules(),
			EnergyCPUJ:      g.Result.EnergyCPU.Joules(),
			DeadlineSeconds: g.Deadline.Seconds(),
			Miss:            g.Miss,
		}
	}
	return out
}

// evalError maps a sync evaluation failure to a response: canceled
// requests get a terse 499-style close (the client is gone), everything
// else is an internal error — spec problems were rejected before
// evaluation started.
func (s *Server) evalError(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() != nil || errors.Is(err, context.Canceled) {
		metricCanceled.Inc()
		// The client disconnected; nothing useful can be written. 499 is
		// nginx's convention for client-closed requests.
		w.WriteHeader(499)
		return
	}
	writeError(w, http.StatusInternalServerError, err.Error())
}

// errFleetTable is the 400 answer to a fleet CSV's unknown ?table.
const errFleetTable = "table must be groups or summary"

// fleetTable returns the fleet CSV table ?table selects — groups, the
// default, or summary — and nil for any other name.
func fleetTable(r *http.Request) func(*fleet.Result) *trace.Table {
	switch r.URL.Query().Get("table") {
	case "", "groups":
		return fleet.GroupsTable
	case "summary":
		return fleet.SummaryTable
	}
	return nil
}

// writeCSV renders an outcome with the exact bytes trace.Table.WriteCSV
// produces for the CLI's -out files: a sweep's points table, or the fleet
// table ?table selects.
func (s *Server) writeCSV(w http.ResponseWriter, r *http.Request, out outcome) {
	var t *trace.Table
	if out.fleet == nil {
		t = sweep.Table(s.eng, out.points)
	} else if table := fleetTable(r); table != nil {
		t = table(out.fleet)
	} else {
		writeError(w, http.StatusBadRequest, errFleetTable)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	_ = t.WriteCSV(w)
}

// FlightRecorderResponse is the GET /v1/flightrecorder result: the
// retained DVFS-epoch records, oldest first, after filtering.
type FlightRecorderResponse struct {
	// Cap is the recorder's ring capacity; Total the retained record
	// count before filtering.
	Cap     int                     `json:"cap"`
	Total   int                     `json:"total"`
	Records []telemetry.EpochRecord `json:"records"`
}

// handleFlightRecorder serves the process-wide flight recorder ring
// (telemetry.SetFlightRecorder) as JSON, filtered by the workload, mode
// and last query parameters.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	rec := telemetry.Recorder()
	if rec == nil {
		writeError(w, http.StatusNotFound,
			"flight recorder disabled; start greengpud with -flight-recorder K")
		return
	}
	q := r.URL.Query()
	last := 0
	if v := q.Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "last must be a non-negative integer")
			return
		}
		last = n
	}
	all := rec.Snapshot()
	out := FlightRecorderResponse{Cap: rec.Cap(), Total: len(all), Records: all}
	if wl := q.Get("workload"); wl != "" {
		out.Records = filterRecords(out.Records, func(e *telemetry.EpochRecord) bool { return e.Workload == wl })
	}
	if mode := q.Get("mode"); mode != "" {
		out.Records = filterRecords(out.Records, func(e *telemetry.EpochRecord) bool { return e.Mode == mode })
	}
	if last > 0 && len(out.Records) > last {
		out.Records = out.Records[len(out.Records)-last:]
	}
	if out.Records == nil {
		out.Records = []telemetry.EpochRecord{}
	}
	writeJSON(w, out)
}

// filterRecords keeps the records keep admits, preserving order.
func filterRecords(recs []telemetry.EpochRecord, keep func(*telemetry.EpochRecord) bool) []telemetry.EpochRecord {
	out := recs[:0:0]
	for i := range recs {
		if keep(&recs[i]) {
			out = append(out, recs[i])
		}
	}
	return out
}

// StatsResponse is the GET /v1/stats result: the shared run cache's
// effectiveness counters (null when the cache is disabled) plus the
// daemon's job and admission state.
type StatsResponse struct {
	Cache *runcache.Stats `json:"cache"`
	Jobs  JobCounts       `json:"jobs"`
	// InflightHeavy is how many evaluations (simulate points, sweeps and
	// fleets) currently hold an admission slot, out of MaxInflight.
	InflightHeavy int `json:"inflight_heavy"`
	MaxInflight   int `json:"max_inflight"`
}

// handleStats serves the run-cache and job counters.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{
		Jobs:          s.jobs.counts(),
		InflightHeavy: len(s.sem),
		MaxInflight:   cap(s.sem),
	}
	if s.eng.Cache != nil {
		st := s.eng.Cache.Stats()
		resp.Cache = &st
	}
	writeJSON(w, resp)
}

// handleHealthz reports liveness: 200 while serving, 503 once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.baseCtx.Err() != nil || s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, map[string]string{"status": "ok"})
}
