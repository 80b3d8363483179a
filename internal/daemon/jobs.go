// Async job store: sweep and fleet requests submitted with async=true
// detach into jobs that survive the submitting connection and are
// queried (or canceled) through /v1/results/{id}, listed through
// /v1/jobs, and — when the daemon runs with -state-dir — journaled
// through internal/jobstore so a restart recovers and re-executes
// whatever was still running. Replay is deterministic: recovered jobs go
// back through the same engines and the same run cache, so their results
// are byte-identical to an uninterrupted run.

package daemon

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"greengpu/internal/jobstore"
)

// Job kinds and states, as they appear in JSON responses.
const (
	jobSweep = "sweep"
	jobFleet = "fleet"

	jobRunning  = "running"
	jobDone     = "done"
	jobFailed   = "failed"
	jobCanceled = "canceled"
)

// job is one detached evaluation. The identity fields (id through
// recovered) are immutable after registration; the mutable tail is
// guarded by the owning store's mutex.
type job struct {
	id        string
	seq       uint64
	kind      string
	spec      string
	cancel    context.CancelFunc
	created   time.Time
	recovered bool

	state    string
	err      string
	finished time.Time
	out      outcome // set once the job is done
}

// maxJobs bounds the async jobs a store retains; beyond it, the oldest
// finished job is evicted.
const maxJobs = 1024

// jobStore holds jobs by id, evicting the oldest finished jobs beyond
// the retention bound max (maxJobs). Running jobs are never evicted, and
// every state transition — registration, eviction, completion, discard —
// happens under the one mutex, so a DELETE can never race a completion
// write.
type jobStore struct {
	mu    sync.Mutex
	next  uint64 // id counter when no journal assigns sequence numbers
	max   int
	jobs  map[string]*job
	order []string // insertion order, the eviction scan order
}

func newJobStore() *jobStore {
	return &jobStore{max: maxJobs, jobs: make(map[string]*job)}
}

// nextSeq reserves the next id for a journal-less server (the journal's
// sequence numbers take over when one is attached).
func (st *jobStore) nextSeq() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.next++
	return st.next
}

// add registers a prepared job, evicting the oldest finished job when
// the store is over its bound.
func (st *jobStore) add(j *job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.jobs[j.id] = j
	st.order = append(st.order, j.id)
	for len(st.order) > st.max {
		evicted := false
		for i, id := range st.order {
			if st.jobs[id].state == jobRunning {
				continue
			}
			delete(st.jobs, id)
			st.order = append(st.order[:i], st.order[i+1:]...)
			evicted = true
			break
		}
		if !evicted {
			break // every retained job is still running; keep them all
		}
	}
}

// get returns the job by id.
func (st *jobStore) get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// terminalState maps an evaluation outcome to a job state.
func terminalState(ctx context.Context, err error) string {
	switch {
	case ctx.Err() != nil || errors.Is(err, context.Canceled):
		return jobCanceled
	case err != nil:
		return jobFailed
	default:
		return jobDone
	}
}

// finishJob records a job's outcome. The terminal record is appended to
// the journal (when one is attached) *before* the in-memory state flips,
// so a job that became evictable as finished is always journaled as
// finished — a crash in between re-runs the job, which deterministic
// replay makes harmless. Append failures are ignored for the same
// reason. The state flip, the stored result and the finished timestamp
// all happen under the store mutex.
func (s *Server) finishJob(j *job, ctx context.Context, out outcome, err error) {
	state := terminalState(ctx, err)
	errText := ""
	if state == jobFailed {
		errText = err.Error()
	}
	now := time.Now()
	if s.journal != nil {
		_ = s.journal.Append(jobstore.Record{
			Seq: j.seq, Op: jobstore.OpFinish, State: state, Err: errText, At: now.UnixNano(),
		})
	}
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	j.state = state
	j.err = errText
	j.finished = now
	if state == jobCanceled {
		metricCanceled.Inc()
	}
	if state == jobDone {
		j.out = out
	}
}

// JobCounts tallies the store by state for /v1/stats.
type JobCounts struct {
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
}

func (st *jobStore) counts() JobCounts {
	st.mu.Lock()
	defer st.mu.Unlock()
	var c JobCounts
	for _, j := range st.jobs {
		switch j.state {
		case jobRunning:
			c.Running++
		case jobDone:
			c.Done++
		case jobFailed:
			c.Failed++
		case jobCanceled:
			c.Canceled++
		}
	}
	return c
}

// JobResponse is the GET /v1/results/{id} result (and the 202 body of an
// async submission, with only the identity fields set). Points or the
// fleet fields are present once the job is done; Recovered marks jobs
// re-executed from the journal after a restart.
type JobResponse struct {
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	Spec      string `json:"spec"`
	Status    string `json:"status"`
	Recovered bool   `json:"recovered,omitempty"`
	Error     string `json:"error,omitempty"`

	Points  []SweepPoint  `json:"points,omitempty"`
	Groups  []FleetGroup  `json:"groups,omitempty"`
	Summary *FleetSummary `json:"summary,omitempty"`
}

// startJob journals the accepted request (when a journal is attached),
// spawns it as a job, and answers 202 with the job id. The fsync happens
// before the 202 leaves the server: once a client holds an id, a crash
// cannot lose the job. A journal write failure is a 500 and the job never
// starts — accepting unjournaled work would silently drop it on restart.
// The admission slot transfers to the job and is released when it
// finishes.
func (s *Server) startJob(w http.ResponseWriter, p *prepared, release func()) {
	j := &job{kind: p.kind, spec: p.spec, created: time.Now()}
	if s.journal != nil {
		j.seq = s.journal.NextSeq()
		err := s.journal.Append(jobstore.Record{
			Seq: j.seq, Op: jobstore.OpAccept, Kind: j.kind, Spec: j.spec, At: j.created.UnixNano(),
		})
		if err != nil {
			release()
			writeError(w, http.StatusInternalServerError, "job journal write failed: "+err.Error())
			return
		}
	} else {
		j.seq = s.jobs.nextSeq()
	}
	j.id = strconv.FormatUint(j.seq, 10)
	metricJobs.Inc()
	s.spawn(j, p, release)
	writeJSONStatus(w, http.StatusAccepted, JobResponse{ID: j.id, Kind: j.kind, Spec: j.spec, Status: jobRunning})
}

// spawn registers j as running and evaluates p as it in a goroutine that
// Serve's drain waits for, under a child of the base context that DELETE
// cancels, then records the outcome with finishJob. A live job arrives
// holding its admission slot (release); a recovered job (nil release)
// first waits for one like a fresh request, so recovery cannot push live
// traffic past MaxInflight.
func (s *Server) spawn(j *job, p *prepared, release func()) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.cancel, j.state = cancel, jobRunning
	s.jobs.add(j)
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		defer cancel()
		if release == nil {
			select {
			case s.sem <- struct{}{}:
				release = func() { <-s.sem }
			case <-ctx.Done():
				s.finishJob(j, ctx, outcome{}, ctx.Err())
				return
			}
		}
		defer release()
		out, err := s.run(ctx, p)
		s.finishJob(j, ctx, out, err)
	}()
}

// recoverJobs re-registers the journal's pending jobs under their
// original ids and re-executes them through prepare and spawn, exactly
// like live ones; drains treat them like any other job. A pending record
// that fails prepare — an unknown kind, or a spec that a daemon downgrade
// or a removed workload made invalid — is journaled as failed rather than
// retried on every restart.
func (s *Server) recoverJobs(pending []jobstore.Record) {
	for _, rec := range pending {
		j := &job{
			seq: rec.Seq, id: strconv.FormatUint(rec.Seq, 10),
			kind: rec.Kind, spec: rec.Spec,
			created: time.Unix(0, rec.At), recovered: true,
		}
		s.recovered++
		metricRecovered.Inc()
		p, err := s.prepare(rec.Kind, rec.Spec)
		if err != nil {
			s.finishJob(j, s.baseCtx, outcome{}, err)
			s.jobs.add(j)
			continue
		}
		s.spawn(j, p, nil)
	}
}

// RecoveredJobs reports how many pending jobs the server re-executed
// from its journal at startup (cmd/greengpud logs it).
func (s *Server) RecoveredJobs() int { return s.recovered }

// handleResultGet serves a job's status and, once done, its results —
// JSON by default, the CLI-identical CSV with ?format=csv (sweep jobs
// render the sweep_points table; fleet jobs honor ?table like the sync
// endpoint).
func (s *Server) handleResultGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such job %q", r.PathValue("id")))
		return
	}
	s.jobs.mu.Lock()
	resp := JobResponse{ID: j.id, Kind: j.kind, Spec: j.spec, Status: j.state,
		Recovered: j.recovered, Error: j.err}
	out := j.out
	s.jobs.mu.Unlock()
	if resp.Status == jobDone {
		if r.URL.Query().Get("format") == "csv" {
			s.writeCSV(w, r, out)
			return
		}
		if out.fleet == nil {
			resp.Points = s.sweepPoints(out.points)
		} else {
			fr := fleetResponse(j.spec, out.fleet)
			resp.Groups = fr.Groups
			resp.Summary = &fr.Summary
		}
	}
	writeJSON(w, resp)
}

// handleResultDelete cancels a running job (its remaining points are
// skipped; completed points stay cached) or discards a finished one.
// Both happen under the store mutex: a cancel observes a consistent
// state, and a discard can never race the completion write or an
// eviction scan.
func (s *Server) handleResultDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st := s.jobs
	st.mu.Lock()
	j, ok := st.jobs[id]
	if !ok {
		st.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such job %q", id))
		return
	}
	if j.state == jobRunning {
		j.cancel()
		st.mu.Unlock()
		writeJSON(w, map[string]string{"id": id, "status": "cancel requested"})
		return
	}
	delete(st.jobs, id)
	for i, oid := range st.order {
		if oid == id {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
	st.mu.Unlock()
	writeJSON(w, map[string]string{"id": id, "status": "discarded"})
}

// JobSummary is one row of the GET /v1/jobs index.
type JobSummary struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Status is running, done, failed or canceled.
	Status string `json:"status"`
	// Created is the accept time, RFC 3339 with nanoseconds. For
	// recovered jobs it is the *original* accept time from the journal,
	// not the restart.
	Created string `json:"created"`
	// Finished is the terminal-state time; empty while running.
	Finished string `json:"finished,omitempty"`
	// Recovered marks jobs re-executed from the journal after a restart.
	Recovered bool `json:"recovered,omitempty"`
}

// JobsResponse is the GET /v1/jobs result: every retained job, ordered
// by id.
type JobsResponse struct {
	Jobs []JobSummary `json:"jobs"`
}

// handleJobs serves the job index, closing the gap where clients had to
// remember every id they were handed.
func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	st := s.jobs
	st.mu.Lock()
	out := make([]JobSummary, 0, len(st.jobs))
	for _, j := range st.jobs {
		row := JobSummary{
			ID:        j.id,
			Kind:      j.kind,
			Status:    j.state,
			Created:   j.created.UTC().Format(time.RFC3339Nano),
			Recovered: j.recovered,
		}
		if j.state != jobRunning {
			row.Finished = j.finished.UTC().Format(time.RFC3339Nano)
		}
		out = append(out, row)
	}
	st.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		na, _ := strconv.ParseUint(out[a].ID, 10, 64)
		nb, _ := strconv.ParseUint(out[b].ID, 10, 64)
		return na < nb
	})
	writeJSON(w, JobsResponse{Jobs: out})
}
