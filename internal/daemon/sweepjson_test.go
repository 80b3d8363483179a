package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"greengpu/internal/sweep"
	"greengpu/internal/units"
)

// encodeSweep is the reference the sweep writer must reproduce: the
// response encoding/json writes for the same results.
func encodeSweep(t *testing.T, s *Server, spec string, results []sweep.PointResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(SweepResponse{Spec: spec, Points: s.sweepPoints(results)}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepJSONMatchesEncodingJSON holds the sync POST /v1/sweep writer to
// encoding/json byte for byte: on real sweeps through the handler (the
// full 324-point ladder, controller-mode subsets, and Monte Carlo draws,
// whose MHz keys are omitted), and on generated results whose floats and
// strings probe every formatting and escaping rule.
func TestSweepJSONMatchesEncodingJSON(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.Cache = nil })

	t.Run("handler", func(t *testing.T) {
		for _, specText := range []string{
			"workloads=all core=all mem=all iters=1",
			"workloads=all core=all mem=all iters=8",
			"workloads=kmeans,hotspot core=0,5 mem=1,4 cpu=1 iters=3 mode=holistic",
			"workloads=nbody,srad_v2 core=2-3 mem=all iters=2 mode=division",
			"workloads=kmeans,lud draws=3 iters=2 mode=holistic",
		} {
			req, _ := json.Marshal(JobRequest{Spec: specText})
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(req))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			_, err = got.ReadFrom(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != 200 {
				t.Fatalf("%s: status %d, %v: %s", specText, resp.StatusCode, err, got.Bytes())
			}
			spec, err := sweep.ParseSpec(specText)
			if err != nil {
				t.Fatal(err)
			}
			results, err := srv.eng.Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if want := encodeSweep(t, srv, specText, results); !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s: writer differs from encoding/json\n got: %.300s\nwant: %.300s", specText, got.Bytes(), want)
			}
		}
	})

	// Floats at and around encoding/json's format cutoffs, its exponent
	// clean-up and the extremes of float64.
	edges := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1, -1, 0.1, 1.5, 123456.789,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21,
		1e-7, 1e-9, 1e-10, 1.5e-300, 1e20, 1e22, 1e100,
		math.MaxFloat64, -math.MaxFloat64,
	}
	rng := rand.New(rand.NewPCG(2012, 23))
	randFloat := func() float64 {
		switch rng.IntN(3) {
		case 0:
			return edges[rng.IntN(len(edges))]
		case 1:
			for {
				if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
					return f
				}
			}
		}
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(61)-30))
	}

	t.Run("floats", func(t *testing.T) {
		check := func(f float64) {
			want, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := appendFloat(nil, f); err != nil || !bytes.Equal(got, want) {
				t.Errorf("appendFloat(%b) = %s, %v; encoding/json writes %s", f, got, err, want)
			}
		}
		for _, f := range edges {
			check(f)
		}
		for i := 0; i < 100000; i++ {
			check(randFloat())
		}
	})

	t.Run("generated", func(t *testing.T) {
		names := []string{"kmeans", "a<b>&c", "line\u2028sep\u2029", "bad\xffutf8", "", `q"b\s`, "tab\t\x01"}
		specs := []string{"workloads=all", "spec <script>&amp;</script>", "sep\u2028\u2029", "bad\xfe\xff", ""}
		nc, nm, np := len(srv.cfg.GPU.CoreLevels), len(srv.cfg.GPU.MemLevels), len(srv.cfg.CPU.PStates)
		durations := []time.Duration{0, 1, -1, math.MaxInt64, math.MinInt64, 1500 * time.Millisecond}
		for round := 0; round < 200; round++ {
			pts := make([]sweep.PointResult, rng.IntN(40))
			for i := range pts {
				pr := sweep.PointResult{Point: sweep.Point{Workload: names[rng.IntN(len(names))],
					Draw: -1, Core: rng.IntN(nc), Mem: rng.IntN(nm), CPU: rng.IntN(np)}}
				if rng.IntN(4) == 0 {
					pr.Draw, pr.Core, pr.Mem, pr.CPU = rng.IntN(1000), -1, -1, -1
				}
				pr.TotalTime = time.Duration(rng.Int64() - math.MaxInt64/2)
				if rng.IntN(3) == 0 {
					pr.TotalTime = durations[rng.IntN(len(durations))]
				}
				pr.Energy = units.Energy(randFloat())
				pr.EnergyGPU = units.Energy(randFloat())
				pr.EnergyCPU = units.Energy(randFloat())
				pr.Fast = rng.IntN(2) == 0
				pts[i] = pr
			}
			spec := specs[rng.IntN(len(specs))]
			got, err := srv.appendSweep(nil, spec, pts)
			if err != nil {
				t.Fatal(err)
			}
			if want := encodeSweep(t, srv, spec, pts); !bytes.Equal(got, want) {
				t.Fatalf("round %d: writer differs from encoding/json\n got: %s\nwant: %s", round, got, want)
			}
		}
	})

	t.Run("non-finite", func(t *testing.T) {
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			pts := []sweep.PointResult{{Point: sweep.Point{Workload: "kmeans", Draw: 0, Core: -1, Mem: -1, CPU: -1},
				EnergyCPU: units.Energy(f)}}
			_, want := json.Marshal(SweepResponse{Points: srv.sweepPoints(pts)})
			if _, err := srv.appendSweep(nil, "", pts); err == nil || want == nil || err.Error() != want.Error() {
				t.Errorf("%v: writer error %v, encoding/json error %v", f, err, want)
			}
			got, ref := httptest.NewRecorder(), httptest.NewRecorder()
			srv.writeSweep(got, "", pts)
			writeJSON(ref, SweepResponse{Points: srv.sweepPoints(pts)})
			if got.Code != 500 || ref.Code != 500 || got.Body.String() != ref.Body.String() ||
				!strings.HasPrefix(got.Body.String(), `{"error":`) {
				t.Errorf("%v: writer answered %d %q, writeJSON %d %q", f, got.Code, got.Body, ref.Code, ref.Body)
			}
		}
	})
}

// TestWriteJSONEncodingFailure: a value encoding/json rejects is a 500
// with the error envelope and nothing else, not a 200 with an empty or
// truncated body; an encodable value keeps encoding/json's exact bytes.
func TestWriteJSONEncodingFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, SimulateResponse{Workload: "kmeans", EnergyJ: math.NaN()})
	if want := `{"error":"json: unsupported value: NaN"}` + "\n"; rec.Code != 500 || rec.Body.String() != want {
		t.Errorf("NaN response: status %d body %q, want 500 %q", rec.Code, rec.Body, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}

	v := SimulateResponse{Workload: "a<b>&\u2028", EnergyJ: 1e-7, EDP: 1e21}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, v)
	if rec.Code != 200 || rec.Body.String() != want.String() {
		t.Errorf("status %d body %q, want 200 %q", rec.Code, rec.Body, want.String())
	}
}
