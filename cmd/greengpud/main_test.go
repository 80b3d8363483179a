package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// safeBuffer guards the stderr buffer: run logs from the serve goroutine
// while the test polls for the listening line.
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

// parseOptions runs a command line through the real flag set.
func parseOptions(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("greengpud", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

// baseURL polls stderr for the "listening on http://..." announcement
// and returns the URL.
func baseURL(t *testing.T, stderr *safeBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(stderr.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "greengpud: listening on "); ok {
				return strings.TrimSpace(rest)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon never announced its address; stderr:\n%s", stderr.String())
	return ""
}

// TestRunSIGTERMDrainsAndExitsZero drives the full daemon lifecycle in
// process: run() comes up on an ephemeral port under the same
// signal.NotifyContext main uses, serves a request, receives a real
// SIGTERM, drains, and returns nil — which is exactly main exiting 0.
func TestRunSIGTERMDrainsAndExitsZero(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	metricsPath := filepath.Join(t.TempDir(), "metrics.prom")
	o := parseOptions(t, "-addr", "127.0.0.1:0", "-jobs", "1",
		"-flight-recorder", "16", "-drain-timeout", "10s", "-metrics", metricsPath)
	stderr := &safeBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, o, stderr) }()

	url := baseURL(t, stderr)
	resp, err := http.Post(url+"/v1/sweep", "application/json",
		strings.NewReader(`{"spec":"workloads=kmeans iters=4"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}

	// The NotifyContext above intercepts the signal, so the test process
	// survives and run sees ctx canceled — the SIGTERM path of main.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil (exit 0)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("run did not return after SIGTERM; stderr:\n%s", stderr.String())
	}

	logs := stderr.String()
	for _, want := range []string{"shutdown requested, draining", "jobs at exit:"} {
		if !strings.Contains(logs, want) {
			t.Errorf("stderr missing %q:\n%s", want, logs)
		}
	}
	snap, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snap), "greengpu_daemon_sweep_requests_total 1") {
		t.Errorf("final metrics snapshot missing sweep counter:\n%s", snap)
	}
}

// TestRunRejectsNegativeFlightRecorder covers the flag-validation error
// path without binding a socket.
func TestRunRejectsNegativeFlightRecorder(t *testing.T) {
	o := parseOptions(t, "-addr", "127.0.0.1:0", "-flight-recorder", "-1")
	err := run(context.Background(), o, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "non-negative") {
		t.Fatalf("run = %v, want flight-recorder validation error", err)
	}
}

// TestRunRejectsIdleCacheFlags: cache flags that would do nothing are
// errors, and a rejected -cache-dir is never created. The context is
// canceled up front, so an accepted flag set returns instead of serving.
func TestRunRejectsIdleCacheFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := filepath.Join(t.TempDir(), "cache")
	for _, args := range [][]string{
		{"-no-cache", "-cache-dir", dir},
		{"-no-cache", "-cache-max-bytes", "10"},
		{"-cache-max-bytes", "10"},
	} {
		o := parseOptions(t, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
		if err := run(ctx, o, io.Discard); err == nil {
			t.Errorf("%v accepted, want error", args)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("rejected -cache-dir was created (stat: %v)", err)
	}
}

// TestEmitMetricsStderr covers the "-" spelling of -metrics.
func TestEmitMetricsStderr(t *testing.T) {
	var buf bytes.Buffer
	if err := emitMetrics("-", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE") {
		t.Fatalf("snapshot has no Prometheus type lines:\n%s", buf.String())
	}
}
