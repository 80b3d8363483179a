package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/big"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
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
// whose MHz keys are omitted), on generated results whose floats and
// strings probe every formatting and escaping rule, and on durations
// across every magnitude exec_s can take.
func TestSweepJSONMatchesEncodingJSON(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.Engine.Cache = nil })

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
		for _, f := range shortestSamples(rng) {
			check(f)
		}
	})

	t.Run("generated", func(t *testing.T) {
		names := []string{"kmeans", "a<b>&c", "line\u2028sep\u2029", "bad\xffutf8", "", `q"b\s`, "tab\t\x01"}
		specs := []string{"workloads=all", "spec <script>&amp;</script>", "sep\u2028\u2029", "bad\xfe\xff", ""}
		nc, nm, np := len(srv.eng.GPU.CoreLevels), len(srv.eng.GPU.MemLevels), len(srv.eng.CPU.PStates)
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

	t.Run("seconds", func(t *testing.T) {
		// Durations log-uniform over every magnitude the integer path
		// serves and past its bounds, of either sign.
		for i := 0; i < 200000; i++ {
			d := time.Duration(math.Pow(10, 17*rng.Float64()))
			if rng.IntN(8) == 0 {
				d = -d
			}
			want, err := json.Marshal(d.Seconds())
			if err != nil {
				t.Fatal(err)
			}
			if got := appendSeconds(nil, d); !bytes.Equal(got, want) {
				t.Fatalf("appendSeconds(%d) = %s; encoding/json writes %s", int64(d), got, want)
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

// shortestSamples returns floats concentrated in appendShortest's range,
// 1e-6 <= |f| < 1e21, of both signs, for each of its branches: bit
// patterns uniform over the range; c = 2^52 and its neighbours at every
// exponent (irregular spacing); integers below and around 2^53, which
// strconv prints by its own exact-integer rule; the neighbours of each
// 10^k at and inside the range's edges (digit-count changes); and
// 1–17-digit decimals with their ±1-ulp neighbours (the 10^(k+1)
// candidate and the ties).
func shortestSamples(rng *rand.Rand) []float64 {
	var out []float64
	around := func(f float64, ulps uint64) {
		u := math.Float64bits(f)
		for v := u - ulps; v <= u+ulps; v++ {
			g := math.Float64frombits(v)
			out = append(out, g, -g)
		}
	}
	lo, hi := math.Float64bits(1e-6), math.Float64bits(1e21)
	for i := 0; i < 100000; i++ {
		f := math.Float64frombits(lo + rng.Uint64N(hi-lo))
		if i&1 == 1 {
			f = -f
		}
		out = append(out, f)
	}
	for q := -80; q <= 20; q++ {
		for _, c := range []float64{1 << 52, 1<<52 + 2, 3 << 51, 1<<53 - 1} {
			around(math.Ldexp(c, q), 2)
		}
	}
	for i := 0; i < 20000; i++ {
		n := uint64(math.Pow(2, 53*rng.Float64()))
		out = append(out, float64(n), float64(n)/8, float64(1<<53-n))
		around(float64(n), 1)
	}
	for k := -6; k <= 21; k++ {
		f, _ := strconv.ParseFloat("1e"+strconv.Itoa(k), 64)
		around(f, 3)
	}
	for i := 0; i < 40000; i++ {
		// n digits scaled to a magnitude of 10^-6 to 10^20.
		n := 1 + rng.IntN(17)
		digits := strconv.FormatUint(rng.Uint64N(uint64(math.Pow10(n))), 10)
		f, _ := strconv.ParseFloat(digits+"e"+strconv.Itoa(rng.IntN(27)-5-n), 64)
		if f != 0 {
			around(f, 1)
		}
	}
	return out
}

// TestPow10InvTable recomputes appendShortest's table with math/big, and
// checks its exponent helpers exactly for every q a double in
// [1e-6, 1e21) has, with k in the table's range.
func TestPow10InvTable(t *testing.T) {
	pow := func(base int64, e int) *big.Rat { // base^e
		r := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(base), big.NewInt(int64(max(e, -e))), nil))
		if e < 0 {
			r.Inv(r)
		}
		return r
	}
	// floorLog returns ⌊log_base x⌋ for x > 0.
	floorLog := func(base int64, x *big.Rat) int {
		e := 0
		for pow(base, e).Cmp(x) > 0 {
			e--
		}
		for pow(base, e+1).Cmp(x) <= 0 {
			e++
		}
		return e
	}
	for k := kMin; k <= kMax; k++ {
		p := pow(10, -k)
		r := floorLog(2, p)
		if got := flog2pow10(-k); got != r {
			t.Errorf("flog2pow10(%d) = %d, want %d", -k, got, r)
		}
		g := new(big.Rat).Mul(p, pow(2, 125-r))
		want := new(big.Int).Quo(g.Num(), g.Denom())
		want.Add(want, big.NewInt(1))
		e := pow10Inv[k-kMin]
		got := new(big.Int).Lsh(new(big.Int).SetUint64(e[0]), 63)
		got.Add(got, new(big.Int).SetUint64(e[1]))
		if e[1]>>63 != 0 || got.Cmp(want) != 0 {
			t.Errorf("pow10Inv[k=%d] = %#x·2^63 + %#x, want g = %#x", k, e[0], e[1], want)
		}
	}
	minQ := int(math.Float64bits(1e-6)>>52) - 1075
	maxQ := int(math.Float64bits(math.Nextafter(1e21, 0))>>52) - 1075
	for q := minQ; q <= maxQ; q++ {
		k, k34 := floorLog(10, pow(2, q)), floorLog(10, new(big.Rat).Mul(big.NewRat(3, 4), pow(2, q)))
		if flog10pow2(q) != k || flog10ThreeQuartersPow2(q) != k34 {
			t.Errorf("q=%d: flog10pow2 %d, flog10ThreeQuartersPow2 %d; want %d, %d",
				q, flog10pow2(q), flog10ThreeQuartersPow2(q), k, k34)
		}
		if k34 < kMin || k > kMax {
			t.Errorf("q=%d: k in [%d, %d] is outside the table's [%d, %d]", q, k34, k, kMin, kMax)
		}
	}
}

// TestAppendFloatAllocs: formatting into a buffer with room allocates
// nothing, in the 'f' range and outside it.
func TestAppendFloatAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, f := range []float64{1234.5678, 0.1, 1e20, 1 << 40, 1e-7, 0} {
		if n := testing.AllocsPerRun(100, func() { buf, _ = appendFloat(buf[:0], f) }); n != 0 {
			t.Errorf("appendFloat(%v) allocates %v times", f, n)
		}
	}
}

// TestSweepBufferReuse holds the pooled response buffer to encoding/json:
// concurrent sync sweeps of different specs and sizes through ServeHTTP
// each get their own exact bytes and Content-Length (run it under -race),
// a non-finite 500 between two sweeps leaves the next body intact, and a
// buffer grown past maxPooledSweep does not return to the pool.
func TestSweepBufferReuse(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) { c.Engine.Cache = nil })
	specs := []string{
		"workloads=all core=all mem=all iters=1",
		"workloads=kmeans core=0 mem=0 iters=2",
		"workloads=kmeans,hotspot core=0,5 mem=1,4 cpu=1 iters=3 mode=holistic",
		"workloads=lud draws=2 iters=2",
		"workloads=nbody,srad_v2 core=2-3 mem=all iters=4",
	}
	want := make([][]byte, len(specs))
	for i, text := range specs {
		spec, err := sweep.ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		results, err := srv.eng.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = encodeSweep(t, srv, text, results)
	}

	t.Run("concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < 3*len(specs); r++ {
					i := (c + r) % len(specs)
					body, _ := json.Marshal(JobRequest{Spec: specs[i]})
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body)))
					if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want[i]) {
						t.Errorf("%s: status %d, body differs from encoding/json\n got: %.200s\nwant: %.200s",
							specs[i], rec.Code, rec.Body.Bytes(), want[i])
						return
					}
					if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want[i])) {
						t.Errorf("%s: Content-Length %q, body is %d bytes", specs[i], cl, len(want[i]))
						return
					}
				}
			}(c)
		}
		wg.Wait()
	})

	points := func(n int, energy float64) []sweep.PointResult {
		pts := make([]sweep.PointResult, n)
		for i := range pts {
			pts[i] = sweep.PointResult{Point: sweep.Point{Workload: "kmeans", Draw: i, Core: -1, Mem: -1, CPU: -1},
				TotalTime: time.Duration(i) * time.Millisecond, Energy: units.Energy(energy), Fast: true}
		}
		return pts
	}

	t.Run("after-500", func(t *testing.T) {
		ok, bad := points(300, 12.5), points(300, math.Inf(1))
		for _, pts := range [][]sweep.PointResult{ok, bad, points(3, 1.25), bad, ok} {
			rec := httptest.NewRecorder()
			srv.writeSweep(rec, "s", pts)
			if math.IsInf(pts[0].Energy.Joules(), 0) {
				if rec.Code != 500 || !strings.HasPrefix(rec.Body.String(), `{"error":`) {
					t.Errorf("non-finite sweep answered %d %q", rec.Code, rec.Body)
				}
				continue
			}
			if want := encodeSweep(t, srv, "s", pts); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%d points after a 500: status %d, body differs from encoding/json", len(pts), rec.Code)
			}
		}
	})

	t.Run("cap", func(t *testing.T) {
		big := points(maxPooledSweep/256+1, 12.5)
		rec := httptest.NewRecorder()
		srv.writeSweep(rec, "s", big)
		if rec.Code != 200 || rec.Body.Len() == 0 {
			t.Fatalf("big sweep answered %d", rec.Code)
		}
		// Take everything the pool holds: the big buffer must not be there.
		for i := 0; i < 64; i++ {
			bp, _ := sweepBufs.Get().(*[]byte)
			if bp == nil {
				break
			}
			if cap(*bp) > maxPooledSweep {
				t.Fatalf("a %d-byte buffer went back to the pool (cap %d)", cap(*bp), maxPooledSweep)
			}
		}
	})
}

// FuzzAppendSeconds holds appendSeconds to appendFloat(d.Seconds()) for
// any duration: the integer path must write the same bytes where its
// guard admits d, and everything else must go through appendFloat. The
// seeds sit on the guard's edges; 1002237559 ns is a duration whose
// Seconds() is not the correctly rounded quotient.
func FuzzAppendSeconds(f *testing.F) {
	for _, d := range []int64{0, 1, -1, 999, 1000, 1e9, 1_500_000_000, 1e15 - 1, 1e15,
		math.MaxInt64, -math.MaxInt64, math.MinInt64, 1002237559} {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, ns int64) {
		d := time.Duration(ns)
		want, err := appendFloat(nil, d.Seconds())
		if err != nil {
			t.Fatal(err)
		}
		if got := appendSeconds(nil, d); !bytes.Equal(got, want) {
			t.Fatalf("appendSeconds(%d) = %s, appendFloat writes %s", ns, got, want)
		}
	})
}

// FuzzAppendFloat holds appendFloat to json.Marshal for any float64 bit
// pattern: the same bytes, or, for NaN and ±Inf, the same error text. The
// seeds sit on the edges of appendShortest's range and branches.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		math.Nextafter(1e21, 0), 1e21, 0x1p52, 0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		0x1p60, 1<<53 - 1, 0.1, 5e-324, math.MaxFloat64} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		v := math.Float64frombits(u)
		want, wantErr := json.Marshal(v)
		got, err := appendFloat(nil, v)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() || !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%#x) = %s, %v; encoding/json writes %s, %v", u, got, err, want, wantErr)
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
