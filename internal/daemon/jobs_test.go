package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"greengpu/internal/jobstore"
)

// waitJob polls /v1/results/{id} until the job leaves running, returning
// the final status body.
func waitJob(t *testing.T, baseURL, id string) JobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobResponse
		code, data := getBody(t, baseURL+"/v1/results/"+id)
		if code != 200 {
			t.Fatalf("status %d: %s", code, data)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish in time", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestJobsIndex(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var first, second JobResponse
	if code := postJSON(t, ts.URL+"/v1/sweep",
		`{"spec":"workloads=kmeans core=all iters=4","async":true}`, &first); code != 202 {
		t.Fatalf("status %d, want 202", code)
	}
	if code := postJSON(t, ts.URL+"/v1/fleet",
		`{"spec":"nodes=50","async":true}`, &second); code != 202 {
		t.Fatalf("status %d, want 202", code)
	}
	waitJob(t, ts.URL, first.ID)
	waitJob(t, ts.URL, second.ID)

	code, data := getBody(t, ts.URL+"/v1/jobs")
	if code != 200 {
		t.Fatalf("GET /v1/jobs: status %d: %s", code, data)
	}
	var idx JobsResponse
	if err := json.Unmarshal(data, &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Jobs) != 2 {
		t.Fatalf("index lists %d jobs, want 2: %s", len(idx.Jobs), data)
	}
	if idx.Jobs[0].ID != first.ID || idx.Jobs[1].ID != second.ID {
		t.Fatalf("index order %q, %q; want %q, %q",
			idx.Jobs[0].ID, idx.Jobs[1].ID, first.ID, second.ID)
	}
	for _, row := range idx.Jobs {
		if row.Status != "done" {
			t.Fatalf("job %s status %q, want done", row.ID, row.Status)
		}
		if row.Created == "" || row.Finished == "" {
			t.Fatalf("job %s missing timestamps: %+v", row.ID, row)
		}
		if _, err := time.Parse(time.RFC3339Nano, row.Created); err != nil {
			t.Fatalf("job %s created %q: %v", row.ID, row.Created, err)
		}
		if row.Recovered {
			t.Fatalf("job %s marked recovered without a restart", row.ID)
		}
	}
	if idx.Jobs[0].Kind != jobSweep || idx.Jobs[1].Kind != jobFleet {
		t.Fatalf("index kinds %q, %q", idx.Jobs[0].Kind, idx.Jobs[1].Kind)
	}

	// Wrong method on the index path gets a 405 with Allow.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/jobs: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET" {
		t.Fatalf("Allow = %q, want GET", allow)
	}
}

func TestDeleteDiscardsFinishedJob(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var accepted JobResponse
	if code := postJSON(t, ts.URL+"/v1/sweep",
		`{"spec":"workloads=kmeans core=all iters=4","async":true}`, &accepted); code != 202 {
		t.Fatalf("status %d, want 202", code)
	}
	waitJob(t, ts.URL, accepted.ID)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/results/"+accepted.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body["status"] != "discarded" {
		t.Fatalf("DELETE on finished job = %+v, want discarded", body)
	}
	if code, _ := getBody(t, ts.URL+"/v1/results/"+accepted.ID); code != 404 {
		t.Fatalf("discarded job still served: status %d", code)
	}
	code, data := getBody(t, ts.URL+"/v1/jobs")
	if code != 200 {
		t.Fatal(code)
	}
	var idx JobsResponse
	if err := json.Unmarshal(data, &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Jobs) != 0 {
		t.Fatalf("discarded job still indexed: %s", data)
	}
}

// TestJournalAcceptBeforeResponse pins the durability ordering a client
// can observe: by the time the 202 is in hand, the accept record is on
// disk.
func TestJournalAcceptBeforeResponse(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, func(c *Config) { c.StateDir = dir })
	var accepted JobResponse
	if code := postJSON(t, ts.URL+"/v1/sweep",
		`{"spec":"workloads=kmeans core=all iters=4","async":true}`, &accepted); code != 202 {
		t.Fatalf("status %d, want 202", code)
	}
	// Read the journal bytes directly (opening it would race the live
	// daemon's appends); the accept frame must already be durable.
	data, err := os.ReadFile(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := jobstore.DecodeAll(data)
	found := false
	for _, rec := range recs {
		if fmt.Sprint(rec.Seq) == accepted.ID && rec.Op == jobstore.OpAccept &&
			rec.Kind == jobSweep && rec.Spec == "workloads=kmeans core=all iters=4" {
			found = true
		}
	}
	if !found {
		t.Fatalf("202 in hand but no accept record on disk; journal holds %+v", recs)
	}
	waitJob(t, ts.URL, accepted.ID)
}

// TestJournalRecovery crashes a journaled daemon (by building the journal
// state a SIGKILL would leave: accept records with no terminal record)
// and verifies a new daemon re-executes a sweep and a fleet job and
// serves CSV results byte-identical to sync runs of the same specs.
func TestJournalRecovery(t *testing.T) {
	jobs := []struct {
		seq        uint64
		kind, spec string
	}{
		{3, jobSweep, "workloads=kmeans,hotspot core=all iters=4"},
		{4, jobFleet, "nodes=200 workloads=kmeans,hotspot faults=0,1"},
	}
	dir := t.TempDir()
	j, _, err := jobstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, jb := range jobs {
		if err := j.Append(jobstore.Record{
			Seq: jb.seq, Op: jobstore.OpAccept, Kind: jb.kind, Spec: jb.spec,
			At: time.Now().Add(-time.Minute).UnixNano(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, func(c *Config) { c.StateDir = dir })
	if srv.RecoveredJobs() != len(jobs) {
		t.Fatalf("RecoveredJobs = %d, want %d", srv.RecoveredJobs(), len(jobs))
	}
	// Byte-identity against uninterrupted sync runs of the same specs on
	// a fresh server (fresh cache: identity comes from determinism, not
	// from sharing a cache with the recovered run).
	_, ts2 := newTestServer(t, nil)
	for _, jb := range jobs {
		id := fmt.Sprint(jb.seq)
		st := waitJob(t, ts.URL, id)
		if st.Status != "done" {
			t.Fatalf("recovered %s job ended %q (%s)", jb.kind, st.Status, st.Error)
		}
		if !st.Recovered {
			t.Fatalf("recovered %s job not marked recovered in /v1/results", jb.kind)
		}
		code, recoveredCSV := getBody(t, ts.URL+"/v1/results/"+id+"?format=csv")
		if code != 200 {
			t.Fatalf("%s csv status %d", jb.kind, code)
		}
		resp, err := http.Post(ts2.URL+"/v1/"+jb.kind+"?format=csv", "application/json",
			bytes.NewReader([]byte(fmt.Sprintf(`{"spec":%q}`, jb.spec))))
		if err != nil {
			t.Fatal(err)
		}
		syncCSV := new(bytes.Buffer)
		if _, err := syncCSV.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("sync %s status %d", jb.kind, resp.StatusCode)
		}
		if !bytes.Equal(recoveredCSV, syncCSV.Bytes()) {
			t.Fatalf("recovered %s CSV differs from uninterrupted run: %d vs %d bytes",
				jb.kind, len(recoveredCSV), syncCSV.Len())
		}
	}

	// The index marks them too, with the original accept time.
	code, data := getBody(t, ts.URL+"/v1/jobs")
	if code != 200 {
		t.Fatal(code)
	}
	var idx JobsResponse
	if err := json.Unmarshal(data, &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Jobs) != len(jobs) || !idx.Jobs[0].Recovered || !idx.Jobs[1].Recovered {
		t.Fatalf("index after recovery: %s", data)
	}

	// A third open sees no pending work: the recovered jobs' terminal
	// records are journaled.
	srv.Close()
	j3, pending, err := jobstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	if len(pending) != 0 {
		t.Fatalf("journal still pending after recovery completed: %+v", pending)
	}
}

// TestRecoveryBadSpec pins that a journaled job that no longer prepares
// — a spec that fails to parse or to validate, or an unknown kind — is
// journaled as failed instead of being retried on every restart.
func TestRecoveryBadSpec(t *testing.T) {
	for _, tc := range []struct{ name, kind, spec, inError string }{
		{"sweep unknown key", jobSweep, "no-such-knob=1", "no-such-knob"},
		{"sweep unknown workload", jobSweep, "workloads=nope", "nope"},
		{"fleet unknown workload", jobFleet, "nodes=10 workloads=nope", "nope"},
		{"unknown kind", "render", "workloads=kmeans", "render"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, _, err := jobstore.Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(jobstore.Record{
				Seq: 0, Op: jobstore.OpAccept, Kind: tc.kind, Spec: tc.spec,
				At: time.Now().UnixNano(),
			}); err != nil {
				t.Fatal(err)
			}
			j.Close()

			srv, ts := newTestServer(t, func(c *Config) { c.StateDir = dir })
			if srv.RecoveredJobs() != 1 {
				t.Fatalf("RecoveredJobs = %d, want 1", srv.RecoveredJobs())
			}
			st := waitJob(t, ts.URL, "0")
			if st.Status != "failed" || !strings.Contains(st.Error, tc.inError) {
				t.Fatalf("recovered job = %+v, want failed with an error naming %q", st, tc.inError)
			}
			srv.Close()

			srv2, _ := newTestServer(t, func(c *Config) { c.StateDir = dir })
			if srv2.RecoveredJobs() != 0 {
				t.Fatalf("failed job recovered again: RecoveredJobs = %d", srv2.RecoveredJobs())
			}
		})
	}
}

// TestJobStoreHammer races job submission, completion, deletion, listing
// and eviction under -race: the store mutex must make every transition
// atomic. Jobs are tiny cached sweeps so hundreds finish quickly.
func TestJobStoreHammer(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	srv.jobs.mu.Lock()
	srv.jobs.max = 4 // force constant eviction pressure
	srv.jobs.mu.Unlock()
	const (
		workers = 8
		perW    = 12
	)
	var wg sync.WaitGroup
	ids := make(chan string, workers*perW)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				var accepted JobResponse
				code := postJSON(t, ts.URL+"/v1/sweep",
					`{"spec":"workloads=kmeans iters=2","async":true}`, &accepted)
				if code == 202 {
					ids <- accepted.ID
				} else if code != http.StatusServiceUnavailable {
					t.Errorf("submit status %d", code)
				}
			}
		}()
	}
	// Deleters race the completion writes and the eviction scans.
	var del sync.WaitGroup
	done := make(chan struct{})
	for d := 0; d < 4; d++ {
		del.Add(1)
		go func() {
			defer del.Done()
			for {
				select {
				case id := <-ids:
					req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/results/"+id, nil)
					if err != nil {
						t.Error(err)
						return
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					// 200 (canceled or discarded) and 404 (evicted first)
					// are both legal outcomes under contention.
					if resp.StatusCode != 200 && resp.StatusCode != 404 {
						t.Errorf("delete status %d", resp.StatusCode)
					}
				case <-done:
					return
				}
			}
		}()
	}
	// A lister keeps scanning the full store.
	var lst sync.WaitGroup
	lst.Add(1)
	go func() {
		defer lst.Done()
		for {
			select {
			case <-done:
				return
			default:
				code, _ := getBody(t, ts.URL+"/v1/jobs")
				if code != 200 {
					t.Errorf("list status %d", code)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(done)
	del.Wait()
	lst.Wait()
}
