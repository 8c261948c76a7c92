package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
)

// actuation is the engine workload: 256 Fig. 1 living-room homes, each with
// four users, the comfort words and about 32 contending rules. The phase is
// an open loop of sync climate, presence and arrival events at a fixed rate
// well below saturation, so evaluation, arbitration and dispatch dominate.
// Events fall due in bursts, as a gateway forwards one poll cycle's context
// changes together, so a burst's latency is mostly the evaluation of the
// events queued ahead of it on the server rather than the host's wake-ups.
type actuation struct {
	homes   []actuationHome
	streams []*actuationEvents
	acks    [loadConns][]ack
}

const (
	actuationHomeCount = 256
	// actuationRate is the offered event rate over both connections.
	actuationRate = 4000.0
	// actuationBurst is how many events each connection sends per burst:
	// one burst every 8 ms at 2,000 events/s per connection.
	actuationBurst = 16
)

func newActuation(seed uint64) *actuation {
	w := &actuation{}
	for i := range actuationHomeCount {
		w.homes = append(w.homes, actuationScript(seed, i))
		w.streams = append(w.streams, newActuationEvents(seed, i))
	}
	return w
}

func (w *actuation) offered() map[string]any {
	period := burstPeriod(actuationRate/loadConns, actuationBurst)
	return map[string]any{"loop": "open", "connections": loadConns, "rate_per_s": actuationRate,
		"burst_per_connection": actuationBurst, "burst_period_ms": ms(int64(period)),
		"burst_stagger_ms": ms(int64(period / loadConns)), "tick_ms": ms(int64(genTick)),
		"homes": actuationHomeCount, "sync": true}
}

func (w *actuation) setup(ctx context.Context, s *server, t *tally, mark func(string)) error {
	return parallel(func(worker int) error {
		for i := worker; i < len(w.homes); i += loadConns {
			if err := seedActuationHome(s, t, &w.homes[i]); err != nil {
				return err
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		return nil
	})
}

func seedActuationHome(s *server, t *tally, h *actuationHome) error {
	base := "/fleet/homes/" + h.ID
	for _, u := range actuationUsers {
		st, _, err := s.do(http.MethodPost, base+"/users", []byte(`{"name":"`+u+`"}`))
		t.expect("register user", st, http.StatusCreated, err)
	}
	for _, sub := range append(append([]submission(nil), h.Words...), h.Rules...) {
		st, body, err := s.do(http.MethodPost, base+"/rules", ruleBody(sub.Source, sub.Owner))
		t.record("submit "+h.ID, submitErr(st, body, err, sub))
	}
	for _, p := range actuationPriorities {
		b, err := json.Marshal(map[string]any{"device": core.DeviceRef{Name: p.Device}, "users": p.Users, "context": p.Context})
		if err != nil {
			return err
		}
		st, _, err := s.do(http.MethodPost, base+"/priority", b)
		t.expect("set priority", st, http.StatusNoContent, err)
	}
	return nil
}

func (w *actuation) phase(ctx context.Context, s *server, t *tally, d time.Duration) (*phaseResult, error) {
	results := make([]*loopResult, loadConns)
	errs := make([]error, loadConns)
	clock := startCPUClock(s)
	rate := actuationRate / loadConns
	// The connections' bursts are staggered evenly over the period, so the
	// server evaluates one burst at a time instead of two interleaved ones
	// whenever the generator's goroutines happen to wake on the same tick.
	start, stagger := time.Now(), burstPeriod(rate, actuationBurst)/loadConns
	var wg sync.WaitGroup
	for c := range loadConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each home is driven over one connection only, so its events
			// reach the hub in a known order the reference replay can follow.
			n := (len(w.homes) - c + loadConns - 1) / loadConns
			next := func(k int) (string, event) {
				i := c + (k%n)*loadConns
				return w.homes[i].ID, w.streams[i].next()
			}
			results[c], errs[c] = openLoop(ctx, s.raw, rate, actuationBurst, start.Add(time.Duration(c)*stagger),
				int(rate*d.Seconds()), next, t)
		}()
	}
	wg.Wait()
	marks, err := clock.finish()
	if err != nil {
		return nil, err
	}
	res := &phaseResult{}
	var done []time.Time
	var prim []timed
	for c, r := range results {
		if errs[c] != nil {
			return nil, errs[c]
		}
		w.acks[c] = r.acks
		res.primary = append(res.primary, r.lat...)
		res.late = append(res.late, r.late...)
		done = append(done, r.done...)
		for i, at := range r.done {
			prim = append(prim, timed{at, r.lat[i]})
		}
	}
	res.decide = res.primary
	res.windows = cutWindows(marks, done, prim)
	return res, nil
}

// check replays the same set-up and every acknowledged event through an
// in-process fleet.Hub with PostEventSync and compares each home's
// fired-action log (rule, device, action) with the server's.
func (w *actuation) check(ctx context.Context, s *server, t *tally) error {
	ref, err := fleet.NewHub(fleet.WithDispatchWorkers(4), fleet.WithLogLimit(1024))
	if err != nil {
		return err
	}
	defer ref.Close()
	for _, h := range w.homes {
		for _, u := range actuationUsers {
			if err := ref.RegisterUser(h.ID, u); err != nil {
				return fmt.Errorf("reference: %w", err)
			}
		}
		for _, sub := range append(append([]submission(nil), h.Words...), h.Rules...) {
			if _, err := ref.Submit(h.ID, sub.Source, sub.Owner); err != nil {
				return fmt.Errorf("reference submit %q: %w", sub.Source, err)
			}
		}
		for _, p := range actuationPriorities {
			if err := ref.SetPriority(h.ID, core.DeviceRef{Name: p.Device}, p.Users, p.Context); err != nil {
				return fmt.Errorf("reference priority: %w", err)
			}
		}
	}
	for _, acks := range w.acks {
		for _, a := range acks {
			if err := ref.PostEventSync(a.home, a.ev.DeviceType, a.ev.Name, a.ev.Location, a.ev.varsMap()); err != nil {
				return fmt.Errorf("reference event: %w", err)
			}
		}
	}
	for _, h := range w.homes {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var got []firedEntry
		if err := s.getJSON("/fleet/homes/"+h.ID+"/log", &got); err != nil {
			t.fail("log %s: %v", h.ID, err)
			continue
		}
		want, err := ref.Log(h.ID)
		if err != nil {
			return fmt.Errorf("reference log: %w", err)
		}
		t.record("fired log "+h.ID, compareLogs(got, want))
	}
	return nil
}

// firedEntry is one entry of GET /fleet/homes/{h}/log; the timestamp is
// wall-clock and is not compared.
type firedEntry struct {
	Rule   string `json:"rule"`
	Device string `json:"device"`
	Action string `json:"action"`
	Error  string `json:"error"`
}

// compareLogs reports the first difference between a served log and the
// reference hub's.
func compareLogs(got []firedEntry, want []engine.Fired) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d fired actions, reference has %d", len(got), len(want))
	}
	for i, f := range want {
		w := firedEntry{Rule: f.Rule.ID, Device: f.Rule.Device.Key(), Action: f.Rule.Action.String()}
		if f.Err != nil {
			w.Error = f.Err.Error()
		}
		if got[i] != w {
			return fmt.Errorf("fired action %d is %+v, reference has %+v", i, got[i], w)
		}
	}
	return nil
}

func (w *actuation) probe(k int) (string, event) {
	i := k % len(w.homes)
	return w.homes[i].ID, w.streams[i].next()
}

func (w *actuation) direct() []directHome {
	var out []directHome
	for i := 0; i < len(w.homes); i += len(w.homes) / 16 {
		h := w.homes[i]
		out = append(out, directHome{ID: h.ID, Users: actuationUsers, Words: h.Words, Sources: h.Rules})
	}
	return out
}
