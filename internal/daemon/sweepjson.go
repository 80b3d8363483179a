// The sync POST /v1/sweep JSON renderer. A ladder sweep's response is
// hundreds of points, each four floats, and encoding it through
// encoding/json's reflection (and its float formatting) cost more than
// evaluating the points. This writer appends the same bytes directly from
// the engine results. SweepResponse and SweepPoint stay the documented
// schema; the async and every other response keep encoding/json.

package daemon

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"greengpu/internal/cpusim"
	"greengpu/internal/gpusim"
	"greengpu/internal/sweep"
	"greengpu/internal/units"
	"greengpu/internal/workload"
)

// ladderMHz holds, per level of each ladder, the `,"key":MHz` member a
// ladder point's SweepPoint encodes, or "" where the MHz is 0 and
// omitempty drops the key.
type ladderMHz struct{ core, mem, cpu []string }

// newLadderMHz renders the three ladders' members once, for New.
func newLadderMHz(gpu *gpusim.Config, cpu *cpusim.Config) (ladderMHz, error) {
	var l ladderMHz
	var err error
	member := func(key string, f units.Frequency) string {
		if f.MHz() == 0 || err != nil {
			return ""
		}
		var b []byte
		b, err = appendFloat([]byte(`,"`+key+`":`), f.MHz())
		return string(b)
	}
	for _, f := range gpu.CoreLevels {
		l.core = append(l.core, member("core_mhz", f))
	}
	for _, f := range gpu.MemLevels {
		l.mem = append(l.mem, member("mem_mhz", f))
	}
	for _, p := range cpu.PStates {
		l.cpu = append(l.cpu, member("cpu_mhz", p.Frequency))
	}
	return l, err
}

// jsonNames renders each profile's name as a JSON string once, for New,
// so a sweep's points name their workload without a json.Marshal call.
func jsonNames(profiles []*workload.Profile) map[string][]byte {
	m := make(map[string][]byte, len(profiles))
	for _, p := range profiles {
		m[p.Name], _ = json.Marshal(p.Name)
	}
	return m
}

// maxPooledSweep is the largest response buffer writeSweep keeps for the
// next request, about 4,000 points. A larger one is dropped after its
// request, so one sweep at the work cap (262,144 points, about 60 MB of
// JSON) does not pin its buffer for the life of the process.
const maxPooledSweep = 1 << 20

// sweepBufs holds writeSweep's response buffers between requests.
var sweepBufs sync.Pool

// writeSweep sends the sync POST /v1/sweep JSON response: the bytes
// json.NewEncoder(w).Encode(SweepResponse{spec, s.sweepPoints(results)})
// would write, with their Content-Length, so net/http sends the body
// whole rather than chunked. Like writeJSON, a total JSON cannot represent
// answers 500 with the error envelope and nothing else. The body is
// rendered into a pooled buffer, which goes back to the pool once Write
// has returned (a Writer must not retain what it is given).
func (s *Server) writeSweep(w http.ResponseWriter, spec string, results []sweep.PointResult) {
	bp, _ := sweepBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	// About 230 bytes per point; one growth at most when names are long.
	body, err := s.appendSweep(slices.Grow((*bp)[:0], 64+len(spec)+256*len(results)), spec, results)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
	} else {
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body)
	}
	if cap(body) <= maxPooledSweep {
		*bp = body[:0]
		sweepBufs.Put(bp)
	}
}

// appendSweep appends the encoding of SweepResponse{spec,
// s.sweepPoints(results)} and encoding/json's trailing newline to b, and
// returns what it appended up to its error, if any. Strings go through
// json.Marshal, which escapes them and cannot fail on a string: the spec
// once, and each workload name once per run of points that share it (a
// plan's order keeps a workload's points together) unless New rendered
// it already.
func (s *Server) appendSweep(b []byte, spec string, results []sweep.PointResult) ([]byte, error) {
	text, _ := json.Marshal(spec)
	b = append(b, `{"spec":`...)
	b = append(b, text...)
	b = append(b, `,"points":[`...)
	var name string
	var nameText []byte
	var err error
	for i := range results {
		pr := &results[i]
		if i > 0 {
			b = append(b, ',')
		}
		if nameText == nil || pr.Workload != name {
			name = pr.Workload
			if nameText = s.names[name]; nameText == nil {
				nameText, _ = json.Marshal(name)
			}
		}
		b = append(b, `{"workload":`...)
		b = append(b, nameText...)
		b = append(b, `,"draw":`...)
		b = strconv.AppendInt(b, int64(pr.Draw), 10)
		b = append(b, `,"core":`...)
		b = strconv.AppendInt(b, int64(pr.Core), 10)
		b = append(b, `,"mem":`...)
		b = strconv.AppendInt(b, int64(pr.Mem), 10)
		b = append(b, `,"cpu":`...)
		b = strconv.AppendInt(b, int64(pr.CPU), 10)
		if pr.Draw < 0 {
			b = append(b, s.mhz.core[pr.Core]...)
			b = append(b, s.mhz.mem[pr.Mem]...)
			b = append(b, s.mhz.cpu[pr.CPU]...)
		}
		b = append(b, `,"exec_s":`...)
		b = appendSeconds(b, pr.TotalTime)
		for _, m := range [...]struct {
			key string
			v   float64
		}{
			{`,"energy_j":`, pr.Energy.Joules()},
			{`,"energy_gpu_j":`, pr.EnergyGPU.Joules()},
			{`,"energy_cpu_j":`, pr.EnergyCPU.Joules()},
		} {
			b = append(b, m.key...)
			if b, err = appendFloat(b, m.v); err != nil {
				return b, err
			}
		}
		b = append(b, `,"fast":`...)
		b = strconv.AppendBool(b, pr.Fast)
		b = append(b, '}')
	}
	return append(b, "]}\n"...), nil
}

// appendSeconds appends d.Seconds() exactly as appendFloat does. When
// 1,000 <= d < 10^15 and d.Seconds() is the double nearest d/10^9, it
// writes d/10^9 from the integer, as a plain decimal without trailing
// zeros; otherwise it calls appendFloat. The text is the same because:
//   - d < 2^53, so float64(d)/1e9 is the correctly rounded quotient, and
//     the guard makes d.Seconds() that double;
//   - d/10^9 has at most 15 significant digits, and two distinct decimals
//     of at most 15 digits never round to one double, so the shortest
//     digits that round-trip, which strconv writes, are d/10^9's own;
//   - d >= 1,000 puts the value at or above 1e-6, where appendFloat writes
//     'f' format (below it, encoding/json writes 1e-9, not 0.000000001).
func appendSeconds(b []byte, d time.Duration) []byte {
	if d < 1000 || d >= 1e15 || float64(d)/1e9 != d.Seconds() {
		b, _ = appendFloat(b, d.Seconds()) // finite: cannot fail
		return b
	}
	b = strconv.AppendInt(b, int64(d/time.Second), 10)
	frac := d % time.Second
	if frac == 0 {
		return b
	}
	var digits [10]byte // '.' and nine digits of nanoseconds
	digits[0] = '.'
	for i := 9; i > 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	n := len(digits)
	for digits[n-1] == '0' {
		n--
	}
	return append(b, digits[:n]...)
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// text that round-trips, in 'f' format for 1e-6 <= |f| < 1e21 (and 0) and
// 'e' format otherwise, with a one-digit negative exponent unpadded
// (1e-7, not 1e-07). appendShortest writes the 'f' range; zero and the
// 'e' range go through strconv. NaN and ±Inf, which JSON cannot
// represent, are encoding/json's UnsupportedValueError.
func appendFloat(b []byte, f float64) ([]byte, error) {
	abs := math.Abs(f)
	if abs >= 1e-6 && abs < 1e21 {
		return appendShortest(b, f), nil
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	if abs == 0 {
		return strconv.AppendFloat(b, f, 'f', -1, 64), nil
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}
