package main

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// authoring is the rule-authoring workload: 64 homes grown to about 200
// rules each during set-up. In the phase, connection 1 submits a scripted
// CADEL sequence in a closed loop — new rules (some of which must come back
// conflicting), "Let's call…" words, duplicate words and inconsistent rules
// that must be refused, and deletions — all journaled to the FileStore.
// Connection 2 sends sync events to the same homes at a fixed low rate.
type authoring struct {
	homes []*authoringHome
}

const (
	authoringHomeCount = 64
	// authoringEventRate is connection 2's offered event rate.
	authoringEventRate = 200.0
	// authoringRefRate sizes the phase: scripted operations per second of
	// --seconds, about what the reference two-core host completes.
	authoringRefRate = 2000
)

func newAuthoring(seed uint64) *authoring {
	w := &authoring{}
	for i := range authoringHomeCount {
		w.homes = append(w.homes, newAuthoringHome(seed, i))
	}
	return w
}

func (w *authoring) offered() map[string]any {
	return map[string]any{"submit_loop": "closed", "submit_connections": 1,
		"event_loop": "open", "event_rate_per_s": authoringEventRate, "tick_ms": ms(int64(genTick)),
		"homes": authoringHomeCount, "rules_per_home": authoringTarget}
}

func (w *authoring) setup(ctx context.Context, s *server, t *tally, mark func(string)) error {
	return parallel(func(worker int) error {
		for i := worker; i < len(w.homes); i += loadConns {
			h := w.homes[i]
			for _, u := range actuationUsers {
				st, _, err := s.do(http.MethodPost, "/fleet/homes/"+h.ID+"/users", []byte(`{"name":"`+u+`"}`))
				t.expect("register user", st, http.StatusCreated, err)
			}
			for _, sub := range authoringSetupWords {
				w.submit(s, t, h, sub)
			}
			for len(h.rules) < authoringTarget {
				w.submit(s, t, h, h.next(true))
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		return nil
	})
}

// submit sends one scripted operation — a deletion when the submission has
// no source — and checks the answer against the script.
func (w *authoring) submit(s *server, t *tally, h *authoringHome, sub submission) {
	base := "/fleet/homes/" + h.ID + "/rules"
	if sub.Source == "" {
		st, _, err := s.do(http.MethodDelete, base+"/"+sub.RuleID, nil)
		t.expect("delete rule", st, sub.Status, err)
		return
	}
	st, body, err := s.do(http.MethodPost, base, ruleBody(sub.Source, sub.Owner))
	t.record("submit "+h.ID, submitErr(st, body, err, sub))
}

func (w *authoring) phase(ctx context.Context, s *server, t *tally, d time.Duration) (*phaseResult, error) {
	res := &phaseResult{}
	clock := startCPUClock(s)
	var loop *loopResult
	var loopErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		loop, loopErr = openLoop(ctx, s.raw, authoringEventRate, 1, time.Now(), int(authoringEventRate*d.Seconds()), w.probe, t)
	}()
	// The phase is fixed work sized from d, so every run ends in the same
	// state and end-of-run memory does not depend on speed.
	steps := int(authoringRefRate * d.Seconds())
	var done []time.Time
	var prim []timed
	for i := 0; ctx.Err() == nil && i < steps; i++ {
		h := w.homes[i%len(w.homes)]
		sub := h.next(false)
		t0 := time.Now()
		w.submit(s, t, h, sub)
		t1 := time.Now()
		done = append(done, t1)
		if sub.Source != "" {
			res.rule = append(res.rule, int64(t1.Sub(t0)))
			prim = append(prim, timed{t1, int64(t1.Sub(t0))})
		}
	}
	wg.Wait()
	marks, err := clock.finish()
	if err != nil {
		return nil, err
	}
	if loopErr != nil {
		return nil, loopErr
	}
	res.windows = cutWindows(marks, append(done, loop.done...), prim)
	res.primary = res.rule
	res.decide = loop.lat
	res.late = loop.late
	return res, nil
}

// check is done inline: every submission's status, word, rule id and
// conflict set were compared with the script as its answer arrived.
func (w *authoring) check(context.Context, *server, *tally) error { return nil }

// probe is connection 2's event stream: living-room climate readings that
// sweep each home's authored temperature intervals.
func (w *authoring) probe(k int) (string, event) {
	i := k % len(w.homes)
	temp := 10 + (k*7+i*3)%30
	return w.homes[i].ID, climate("living room", temp, 40+(k*11)%50)
}

func (w *authoring) direct() []directHome {
	var out []directHome
	for i := 0; i < len(w.homes); i += len(w.homes) / 16 {
		h := w.homes[i]
		d := directHome{ID: h.ID, Users: actuationUsers, Words: append(append([]submission(nil), authoringSetupWords...), h.words...)}
		// The home's next rule submissions, timed against its current rules
		// and not sent.
		for len(d.Sources) < 16 {
			if sub := h.next(true); sub.Source != "" {
				d.Sources = append(d.Sources, sub)
			}
		}
		out = append(out, d)
	}
	return out
}
