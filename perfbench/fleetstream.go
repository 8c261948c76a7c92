package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// fleetStream is the wire workload: 5,000 homes, 1,000 of them holding one
// user and Example Rule 1, the rest created by their first event. The phase
// is a closed loop of async posts over two raw connections at pipeline
// depth 16; successive posts to a home alternate across the rule's
// threshold.
type fleetStream struct {
	seed   uint64
	homes  []string
	events uint64 // events the hub acknowledged so far (seeding included)
}

const (
	fleetHomes     = 5000
	fleetRuleHomes = 1000
	fleetDepth     = 16
)

func newFleetStream(seed uint64) *fleetStream {
	w := &fleetStream{seed: seed}
	for i := range fleetHomes {
		w.homes = append(w.homes, fleetHomeID(seed, i))
	}
	return w
}

func (w *fleetStream) offered() map[string]any {
	return map[string]any{"loop": "closed", "connections": loadConns, "pipeline_depth": fleetDepth,
		"homes": fleetHomes, "rule_homes": fleetRuleHomes, "sync": false}
}

func (w *fleetStream) request(i, k int) []byte {
	return appendEventRequest(nil, w.homes[i], climate("living room", fleetTemp(w.seed, i, k), 50).body(false))
}

func (w *fleetStream) setup(ctx context.Context, s *server, t *tally, mark func(string)) error {
	err := parallel(func(worker int) error {
		for i := worker; i < fleetRuleHomes; i += loadConns {
			base := "/fleet/homes/" + w.homes[i]
			st, _, err := s.do(http.MethodPost, base+"/users", []byte(`{"name":"u"}`))
			t.expect("register user", st, http.StatusCreated, err)
			st, body, err := s.do(http.MethodPost, base+"/rules", ruleBody(fleetRule, "u"))
			t.record("submit rule", submitErr(st, body, err, submission{Status: 201, RuleID: "u-1"}))
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if mark != nil {
		mark("rule_homes")
	}
	err = parallel(func(worker int) error {
		var reqs [][]byte
		for i := fleetRuleHomes + worker; i < fleetHomes; i += loadConns {
			reqs = append(reqs, w.request(i, 1))
		}
		return pipeline(s.raw, reqs, fleetDepth, http.StatusAccepted, t)
	})
	if err != nil {
		return err
	}
	w.events = fleetHomes - fleetRuleHomes
	st, err := s.waitDrained(ctx, w.events)
	if err != nil {
		return err
	}
	if st.Homes != fleetHomes {
		t.fail("seeded %d homes, want %d", st.Homes, fleetHomes)
	}
	if mark != nil {
		mark("event_homes")
	}
	return nil
}

// fleetChunk is how many events each connection sends per window. A
// window is fixed work, timed until the hub has drained it, so a window's
// rate is work completed rather than work merely acknowledged.
const fleetChunk = 32 << 10

// fleetRefRate sizes the phase: events per second of --seconds, about what
// the reference two-core host sustains. The phase is that fixed work, so
// every run ends in the same state and end-of-run memory does not depend on
// speed.
const fleetRefRate = 200_000

func (w *fleetStream) phase(ctx context.Context, s *server, t *tally, d time.Duration) (*phaseResult, error) {
	type conn struct {
		wc   *wireConn
		reqs [2][][]byte // per home of this connection: above, below the threshold
		k    int         // events sent so far
		lat  []int64
		err  error
	}
	conns := make([]*conn, loadConns)
	for c := range conns {
		wc, err := dialWire(s.raw)
		if err != nil {
			return nil, err
		}
		defer wc.Close()
		cn := &conn{wc: wc}
		for i := c; i < fleetHomes; i += loadConns {
			cn.reqs[0] = append(cn.reqs[0], w.request(i, 0))
			cn.reqs[1] = append(cn.reqs[1], w.request(i, 1))
		}
		conns[c] = cn
	}
	// chunk sends fleetChunk events over cn in a closed loop at pipeline
	// depth fleetDepth; successive sweeps over its homes alternate across
	// the threshold.
	chunk := func(cn *conn) {
		n := len(cn.reqs[0])
		var buf []byte
		for sent := 0; sent < fleetChunk; sent += fleetDepth {
			buf = buf[:0]
			for range fleetDepth {
				buf = append(buf, cn.reqs[(cn.k/n)%2][cn.k%n]...)
				cn.k++
			}
			t0 := time.Now()
			if cn.err = cn.wc.send(buf); cn.err != nil {
				return
			}
			for range fleetDepth {
				st, err := cn.wc.recv()
				if err != nil {
					cn.err = err
					return
				}
				cn.lat = append(cn.lat, int64(time.Since(t0)))
				t.expect("async event", st, http.StatusAccepted, nil)
			}
		}
	}
	res := &phaseResult{}
	chunks := max(1, int(fleetRefRate*d.Seconds())/(loadConns*fleetChunk))
	for range chunks {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		cpu0, err := s.cpuSeconds()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, cn := range conns {
			cn.lat = cn.lat[:0]
			wg.Add(1)
			go func() {
				defer wg.Done()
				chunk(cn)
			}()
		}
		wg.Wait()
		win := window{ops: loadConns * fleetChunk}
		for _, cn := range conns {
			if cn.err != nil {
				return nil, cn.err
			}
			win.lat = append(win.lat, cn.lat...)
		}
		w.events += uint64(win.ops)
		if _, err := s.waitDrained(ctx, w.events); err != nil {
			return nil, err
		}
		win.elapsed = time.Since(t0)
		cpu1, err := s.cpuSeconds()
		if err != nil {
			return nil, err
		}
		win.cpu = cpu1 - cpu0
		res.windows = append(res.windows, win)
		res.primary = append(res.primary, win.lat...)
	}
	return res, nil
}

func (w *fleetStream) check(ctx context.Context, s *server, t *tally) error {
	st, err := s.stats()
	if err != nil {
		return err
	}
	var mismatch error
	if st.Events != w.events {
		mismatch = fmt.Errorf("%d events accepted, %d sent", st.Events, w.events)
	}
	t.record("fleet stats", mismatch)
	return nil
}

func (w *fleetStream) probe(k int) (string, event) {
	i := k % fleetRuleHomes
	return w.homes[i], climate("living room", fleetTemp(w.seed, i, k/fleetRuleHomes), 50)
}

func (w *fleetStream) direct() []directHome {
	var out []directHome
	for i := 0; i < fleetRuleHomes; i += fleetRuleHomes / 16 {
		out = append(out, directHome{ID: w.homes[i], Users: []string{"u"},
			Sources: []submission{{Owner: "u", Source: fleetRule}}})
	}
	return out
}

// ruleBody renders a POST …/rules request.
func ruleBody(source, owner string) []byte {
	b, _ := json.Marshal(map[string]string{"source": source, "owner": owner}) // strings always marshal
	return b
}

// submitResponse is the part of a POST …/rules answer the checks read.
type submitResponse struct {
	Rule *struct {
		ID string `json:"id"`
	} `json:"rule"`
	DefinedWord string `json:"definedWord"`
	Conflicts   []struct {
		ID string `json:"id"`
	} `json:"conflicts"`
}

// submitErr compares a submission's answer with the script's expectation:
// the status, then for a 201 the defined word, or the rule id and — when
// the script models the home's conflicts — the exact set of conflicting
// rule ids.
func submitErr(status int, body []byte, err error, want submission) error {
	if err := statusErr(status, want.Status, err); err != nil || status != http.StatusCreated {
		return err
	}
	var got submitResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("answer %q: %w", body, err)
	}
	if want.Word != "" {
		if got.DefinedWord != want.Word {
			return fmt.Errorf("defined word %q, want %q", got.DefinedWord, want.Word)
		}
		return nil
	}
	if got.Rule == nil || (want.RuleID != "" && got.Rule.ID != want.RuleID) {
		return fmt.Errorf("answer %s, want rule id %q", body, want.RuleID)
	}
	if want.RuleID == "" {
		return nil // the script does not model this home's conflicts
	}
	ids := make(map[string]bool, len(got.Conflicts))
	for _, c := range got.Conflicts {
		ids[c.ID] = true
	}
	ok := len(ids) == len(want.Conflicts) && len(got.Conflicts) == len(want.Conflicts)
	for _, id := range want.Conflicts {
		ok = ok && ids[id]
	}
	if !ok {
		return fmt.Errorf("rule %s conflicts %v, want %v", want.RuleID, got.Conflicts, want.Conflicts)
	}
	return nil
}
