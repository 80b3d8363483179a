package iofault

import (
	"fmt"
	"time"

	"greengpu/internal/telemetry"
)

// metricRetries counts re-issued storage operations across every
// RetryPolicy user (the job journal's appends).
var metricRetries = telemetry.NewCounter("greengpu_iofault_retries_total",
	"Storage operations re-issued after a transient failure (bounded backoff).")

// RetryPolicy is the bounded retry/backoff helper for transient storage
// failures. It carries dvfs.Guard's policy shape to the
// infrastructure layer: the backoff starts at Backoff, doubles per
// failure, and is capped at BackoffMax, with a hard attempt bound instead
// of a watchdog (storage callers surface the final error; they have no
// failsafe clock to fall back to). The zero value selects the documented
// defaults.
type RetryPolicy struct {
	// Attempts is the total number of tries, including the first.
	// Default 3.
	Attempts int
	// Backoff is the sleep before the first retry; it doubles per
	// failure. Default 1ms.
	Backoff time.Duration
	// BackoffMax caps the doubling. Default 50ms.
	BackoffMax time.Duration
	// Sleep replaces time.Sleep between attempts. Tests inject a recorder
	// here; nil means time.Sleep.
	Sleep func(time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts == 0 {
		p.Attempts = 3
	}
	if p.Backoff == 0 {
		p.Backoff = time.Millisecond
	}
	if p.BackoffMax == 0 {
		p.BackoffMax = 50 * time.Millisecond
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Validate reports the first problem with the policy, if any. Zero fields
// are valid (defaults fill them in).
func (p RetryPolicy) Validate() error {
	if p.Attempts < 0 {
		return fmt.Errorf("iofault: RetryPolicy.Attempts = %d, must be non-negative", p.Attempts)
	}
	if p.Backoff < 0 {
		return fmt.Errorf("iofault: RetryPolicy.Backoff = %v, must be non-negative", p.Backoff)
	}
	if p.BackoffMax < 0 {
		return fmt.Errorf("iofault: RetryPolicy.BackoffMax = %v, must be non-negative", p.BackoffMax)
	}
	return nil
}

// Do runs op until it succeeds or the attempt bound is exhausted,
// sleeping the doubling backoff between tries. It returns nil on the
// first success and op's last error otherwise. Callers that must undo
// partial effects between attempts (a journal rewinding a torn frame) do
// so inside op itself, before re-issuing the write.
func (p RetryPolicy) Do(op func() error) error {
	p = p.withDefaults()
	backoff := p.Backoff
	var err error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if attempt > 0 {
			metricRetries.Inc()
			p.Sleep(backoff)
			backoff *= 2
			if backoff > p.BackoffMax {
				backoff = p.BackoffMax
			}
		}
		if err = op(); err == nil {
			return nil
		}
	}
	return err
}
