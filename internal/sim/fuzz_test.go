package sim

import (
	"testing"
	"time"
)

// The fuzz test drives random interleavings of Schedule/After/Cancel/Every/
// Ticker.Stop/Step, with tickers that may call SkipIdle on every tick,
// against both the engine and an obviously-correct reference model (a flat
// slice scanned for the minimum (at, seq) pair).
// Any divergence — in fire order, clock, pending count, or handle
// staleness — is a bug in the pooled engine. In particular this checks the
// pooling contract: cancelling a stale handle must never kill the unrelated
// event that reused its node, and cancelled events must never fire.

// modelEvent mirrors one scheduled callback in the reference model.
type modelEvent struct {
	at   time.Duration
	seq  uint64
	id   int
	tick *modelTicker // non-nil for a ticker firing: re-arms on fire
	live bool
}

type modelTicker struct {
	period  time.Duration
	id      int
	skip    bool // calls SkipIdle on every tick
	stopped bool
	pending *modelEvent
}

// model is the reference scheduler: no heap, no pooling, just a scan.
type model struct {
	now    time.Duration
	seq    uint64
	events []*modelEvent
}

func (m *model) schedule(at time.Duration, id int, tick *modelTicker) *modelEvent {
	ev := &modelEvent{at: at, seq: m.seq, id: id, tick: tick, live: true}
	m.seq++
	m.events = append(m.events, ev)
	return ev
}

func (m *model) pendingCount() int {
	n := 0
	for _, ev := range m.events {
		if ev.live {
			n++
		}
	}
	return n
}

// step fires the earliest live event, FIFO on ties, re-arming tickers.
func (m *model) step() (id int, ok bool) {
	var best *modelEvent
	for _, ev := range m.events {
		if !ev.live {
			continue
		}
		if best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
			best = ev
		}
	}
	if best == nil {
		return 0, false
	}
	m.now = best.at
	best.live = false
	if t := best.tick; t != nil && !t.stopped {
		at := m.now + t.period
		if t.skip {
			// The first boundary at or after the next live event.
			if next, ok := m.nextAt(); ok {
				for at < next {
					at += t.period
				}
			}
		}
		t.pending = m.schedule(at, t.id, t)
	}
	return best.id, true
}

// nextAt returns the earliest live event's time.
func (m *model) nextAt() (time.Duration, bool) {
	var at time.Duration
	ok := false
	for _, ev := range m.events {
		if ev.live && (!ok || ev.at < at) {
			at, ok = ev.at, true
		}
	}
	return at, ok
}

// handlePair links an engine handle to its model event so staleness can be
// cross-checked: Scheduled() must agree with the model's live flag.
type handlePair struct {
	ev    Event
	model *modelEvent
}

func FuzzEngineVsModel(f *testing.F) {
	f.Add([]byte{0, 5, 3, 3})                            // schedule, step, step-empty
	f.Add([]byte{0, 0, 0, 0, 3, 3, 3})                   // same-instant FIFO ties
	f.Add([]byte{0, 9, 2, 0, 3, 2, 0, 3})                // cancel live, then stale
	f.Add([]byte{4, 7, 3, 3, 3, 5, 0, 3})                // ticker, ticks, stop
	f.Add([]byte{0, 1, 1, 2, 2, 0, 3, 0, 0, 2, 1, 3, 3}) // mixed churn
	f.Add([]byte{6, 1, 0, 9, 3, 3, 3, 3, 3, 3})          // skipping ticker, far event
	f.Add([]byte{6, 2, 4, 7, 0, 9, 3, 3, 3, 3, 5, 1, 3}) // beside a ticker, then stopped
	f.Fuzz(func(t *testing.T, script []byte) {
		// The per-op invariant sweep is quadratic in script length; cap it
		// so the fuzzer explores many interleavings instead of one long one.
		if len(script) > 512 {
			script = script[:512]
		}
		e := New()
		m := &model{}
		var got, want []int
		var handles []handlePair
		var tickers []*Ticker
		var modelTickers []*modelTicker
		nextID := 0

		record := func(id int) func() { return func() { got = append(got, id) } }

		stepBoth := func() {
			id, ok := m.step()
			if e.Step() != ok {
				t.Fatalf("Step() fired=%v, model says %v (pending %d)", !ok, ok, e.Pending())
			}
			if ok {
				want = append(want, id)
			}
		}

		i := 0
		nextByte := func() byte {
			if i >= len(script) {
				return 0
			}
			b := script[i]
			i++
			return b
		}

		for i < len(script) {
			switch op := nextByte() % 7; op {
			case 0, 1: // Schedule / After with a small delay
				d := time.Duration(nextByte()%64) * time.Millisecond
				id := nextID
				nextID++
				var ev Event
				if op == 0 {
					ev = e.Schedule(e.Now()+d, record(id))
				} else {
					ev = e.After(d, record(id))
				}
				handles = append(handles, handlePair{ev: ev, model: m.schedule(m.now+d, id, nil)})
			case 2: // Cancel a handle, possibly stale
				if len(handles) == 0 {
					continue
				}
				h := handles[int(nextByte())%len(handles)]
				e.Cancel(h.ev)
				h.model.live = false // no-op if already fired/cancelled, same as gen check
			case 3: // Step
				stepBoth()
			case 4, 6: // Every, skipping idle ticks for op 6
				p := time.Duration(nextByte()%16+1) * time.Millisecond
				id := nextID
				nextID++
				mt := &modelTicker{period: p, id: id, skip: op == 6}
				mt.pending = m.schedule(m.now+p, id, mt)
				var tk *Ticker
				fn := record(id)
				if mt.skip {
					fn = func() {
						got = append(got, id)
						tk.SkipIdle()
					}
				}
				tk = e.Every(p, fn)
				tickers = append(tickers, tk)
				modelTickers = append(modelTickers, mt)
			case 5: // Ticker.Stop, possibly repeated
				if len(tickers) == 0 {
					continue
				}
				k := int(nextByte()) % len(tickers)
				tickers[k].Stop()
				mt := modelTickers[k]
				mt.stopped = true
				if mt.pending != nil {
					mt.pending.live = false
				}
			}

			// Invariants after every op.
			if e.Now() != m.now {
				t.Fatalf("clock diverged: engine %v, model %v", e.Now(), m.now)
			}
			if e.Pending() != m.pendingCount() {
				t.Fatalf("pending diverged: engine %d, model %d", e.Pending(), m.pendingCount())
			}
			for _, h := range handles {
				if h.ev.Scheduled() != h.model.live {
					t.Fatalf("handle %d: Scheduled()=%v, model live=%v",
						h.model.id, h.ev.Scheduled(), h.model.live)
				}
			}
		}

		// Drain (bounded: live tickers re-arm forever).
		for n := 0; n < 256 && e.Pending() > 0; n++ {
			stepBoth()
		}

		if len(got) != len(want) {
			t.Fatalf("fired %d events, model fired %d\n got %v\nwant %v", len(got), len(want), got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("fire order diverged at %d:\n got %v\nwant %v", k, got, want)
			}
		}
	})
}
