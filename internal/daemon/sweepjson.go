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
	"strconv"

	"greengpu/internal/cpusim"
	"greengpu/internal/gpusim"
	"greengpu/internal/sweep"
	"greengpu/internal/units"
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

// writeSweep sends the sync POST /v1/sweep JSON response: the bytes
// json.NewEncoder(w).Encode(SweepResponse{spec, s.sweepPoints(results)})
// would write. Like writeJSON, a total JSON cannot represent answers 500
// with the error envelope and nothing else.
func (s *Server) writeSweep(w http.ResponseWriter, spec string, results []sweep.PointResult) {
	// About 230 bytes per point; one growth at most when names are long.
	body, err := s.appendSweep(make([]byte, 0, 64+len(spec)+256*len(results)), spec, results)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// appendSweep appends the encoding of SweepResponse{spec,
// s.sweepPoints(results)} and encoding/json's trailing newline to b.
// Strings go through json.Marshal, which escapes them and cannot fail on
// a string: the spec once, and each workload name once per run of points
// that share it (a plan's order keeps a workload's points together).
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
			nameText, _ = json.Marshal(name)
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
		for _, m := range [...]struct {
			key string
			v   float64
		}{
			{`,"exec_s":`, pr.TotalTime.Seconds()},
			{`,"energy_j":`, pr.Energy.Joules()},
			{`,"energy_gpu_j":`, pr.EnergyGPU.Joules()},
			{`,"energy_cpu_j":`, pr.EnergyCPU.Joules()},
		} {
			b = append(b, m.key...)
			if b, err = appendFloat(b, m.v); err != nil {
				return nil, err
			}
		}
		b = append(b, `,"fast":`...)
		b = strconv.AppendBool(b, pr.Fast)
		b = append(b, '}')
	}
	return append(b, "]}\n"...), nil
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// text that round-trips, in 'f' format for 1e-6 <= |f| < 1e21 (and 0) and
// 'e' format otherwise, with a one-digit negative exponent unpadded
// (1e-7, not 1e-07). NaN and ±Inf, which JSON cannot represent, are
// encoding/json's UnsupportedValueError.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
