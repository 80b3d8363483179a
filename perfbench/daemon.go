package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running greengpud process on an ephemeral loopback port.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	logs *tailBuffer
	// exited is closed once the process has been reaped; err holds its
	// exit status.
	exited chan struct{}
	err    error
}

// startTimeout bounds how long a daemon may take to announce its address.
const startTimeout = 60 * time.Second

// startDaemon launches bin with args and returns once the daemon answers
// GET /healthz. The returned duration is the set-up time a user of the
// service waits: from exec until the first successful health check.
func startDaemon(bin string, args []string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, logs: &tailBuffer{}, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			d.logs.add(line)
			if _, a, ok := strings.Cut(line, "listening on "); ok && !announced {
				announced = true
				addr <- a
			}
		}
		// Drain anything the scanner left so Wait never blocks on the pipe.
		_, _ = io.Copy(io.Discard, pipe)
		d.err = cmd.Wait()
		close(d.exited)
	}()

	select {
	case d.url = <-addr:
	case <-d.exited:
		return nil, 0, fmt.Errorf("greengpud exited before listening (%v): %s", d.err, d.logs)
	case <-time.After(startTimeout):
		d.stop()
		return nil, 0, fmt.Errorf("greengpud did not announce an address within %v", startTimeout)
	}
	resp, err := http.Get(d.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /healthz: status %d", resp.StatusCode)
		}
	}
	took := time.Since(start)
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, took, nil
}

// stop asks the daemon to drain and exit, kills it if it does not, and
// waits until the process has been reaped.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// scrape reads the daemon's live Prometheus registry into name → value.
// Series with labels keep them in the name (histogram buckets); the
// ledger reads only unlabeled series and histogram _sum/_count.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: bad sample %q", line)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// procStats is the daemon's CPU time and peak resident set from /proc.
type procStats struct {
	cpu    time.Duration
	peakMB float64
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for every architecture's userspace ABI.
const clockTick = 10 * time.Millisecond

func (d *daemon) proc() (procStats, error) {
	pid := d.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStats{}, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return procStats{}, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procStats{}, fmt.Errorf("bad /proc stat times %q %q", f[11], f[12])
	}
	st := procStats{cpu: time.Duration(utime+stime) * clockTick}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procStats{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return procStats{}, fmt.Errorf("bad VmHWM %q", v)
			}
			st.peakMB = kb / 1024
		}
	}
	return st, nil
}

// tailBuffer keeps the last lines a daemon wrote to stderr, for error
// messages.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.lines) == 20 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, line)
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}
