// Serving and graceful shutdown: the daemon drains on cancellation —
// in-flight HTTP requests and detached async jobs run to completion
// under a drain deadline, then cache and job counters are flushed.

package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// Serve accepts connections on ln until ctx is canceled (cmd/greengpud
// wires SIGINT/SIGTERM into ctx via signal.NotifyContext), then shuts
// down gracefully:
//
//  1. /healthz flips to 503 and the listener closes; in-flight requests
//     keep running.
//  2. In-flight HTTP requests and detached async jobs drain, bounded by
//     drainTimeout (0 means DefaultDrainTimeout). On a deadline hit the
//     base context is canceled, which skips every unstarted point;
//     points already evaluating complete, so the run cache stays free of
//     partial entries either way.
//  3. The run-cache counters and job tallies are flushed to logw.
//
// A clean drain returns nil, so cmd/greengpud exits 0 on SIGTERM.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration, logw io.Writer) error {
	if drainTimeout <= 0 {
		drainTimeout = DefaultDrainTimeout
	}
	srv := &http.Server{
		Handler:     s,
		BaseContext: func(net.Listener) context.Context { return s.baseCtx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// The listener failed before any shutdown was requested.
		return err
	case <-ctx.Done():
	}

	s.draining.Store(true)
	fmt.Fprintln(logw, "greengpud: shutdown requested, draining")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	shutdownErr := srv.Shutdown(dctx)

	// Wait for detached async jobs under the same deadline; past it,
	// cancel the base context so their remaining points are skipped.
	jobsDone := make(chan struct{})
	go func() {
		s.bg.Wait()
		close(jobsDone)
	}()
	select {
	case <-jobsDone:
	case <-dctx.Done():
		fmt.Fprintln(logw, "greengpud: drain deadline hit, canceling remaining jobs")
		s.cancel()
		<-jobsDone
	}
	s.cancel()

	if s.journal != nil {
		// Every job has drained (or been canceled and journaled as such);
		// the journal can close cleanly.
		_ = s.journal.Close()
	}
	if s.eng.Cache != nil {
		fmt.Fprintln(logw, "greengpud:", s.eng.Cache.Stats())
	}
	jc := s.jobs.counts()
	fmt.Fprintf(logw, "greengpud: jobs at exit: %d running, %d done, %d failed, %d canceled\n",
		jc.Running, jc.Done, jc.Failed, jc.Canceled)
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	return nil
}

// DefaultDrainTimeout bounds graceful shutdown when the caller passes no
// explicit drain timeout.
const DefaultDrainTimeout = 30 * time.Second
