package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"greengpu/internal/core"
)

// holisticDigest is the SHA-256 of every field of every result of the
// holistic ladder sweep below, as computed by the simulator before the
// tier-2 controller's inner loops were fused. Any change to the order of a
// floating-point operation anywhere on the full-simulation path shows up
// here, even when every in-process differential check agrees (they run
// the same changed code on both sides).
const holisticDigest = "2d4485075c28d9f2031473c18127c4e3c4ff7c13c1cb9bba546916acc00b0413"

// TestHolisticSweepDigest pins all 3,888 points of the holistic ladder
// sweep — every workload × every CPU P-state × iterations 3–5 × the 6×6
// GPU ladder, each a full event-by-event simulation — to one digest over
// their JSON encodings: each Run point with the full result Engine.Eval
// gives for its configuration, whose totals Run must return bit for bit.
// encoding/json writes float64 values in the shortest form that
// round-trips, so the digest covers every bit of every energy, time, ratio
// and level.
func TestHolisticSweepDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("3,888 full simulations")
	}
	if runtime.GOARCH != "amd64" {
		// Go may fuse x*y+z into one FMA on other architectures, which
		// rounds differently; the pinned digest is amd64 arithmetic.
		t.Skip("digest pinned on amd64")
	}
	e := testEngine(t)
	e.Jobs = 2
	h := sha256.New()
	points := 0
	for cpu := 0; cpu < len(e.CPU.PStates); cpu++ {
		for iters := 3; iters <= 5; iters++ {
			spec := Spec{Mode: core.Holistic, Iterations: iters, CPULevel: cpu}
			results, err := e.Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range results {
				if pr.Fast {
					t.Fatalf("%+v took the fast path; holistic points must simulate", pr.Point)
				}
				r, fast, err := e.Eval(pr.Workload, e.config(&spec, pr.Point))
				if err != nil {
					t.Fatal(err)
				}
				if !sameTotals(pr, r) {
					t.Fatalf("%+v: Run totals diverge from Engine.Eval", pr.Point)
				}
				// The JSON shape the digest was taken over: the point, its
				// full result, and the Fast flag.
				j, err := json.Marshal(struct {
					Point
					Result *core.Result
					Fast   bool
				}{pr.Point, r, fast})
				if err != nil {
					t.Fatal(err)
				}
				h.Write(j)
				h.Write([]byte{'\n'})
				points++
			}
		}
	}
	if points != 3888 {
		t.Fatalf("swept %d points, want 3888 (9 workloads × 4 P-states × 3 iteration counts × 36)", points)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != holisticDigest {
		t.Errorf("holistic sweep digest = %s, want %s", got, holisticDigest)
	}
}
