package main

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// workload is one traffic mix. A fresh value drives each fresh server, since
// the scripts it generates are stateful.
type workload interface {
	// setup brings a fresh server to the state the measured phase starts
	// from. mark, when non-nil, runs between seeding stages; the traced
	// invocation reads the server's heap there.
	setup(ctx context.Context, s *server, t *tally, mark func(stage string)) error
	// phase runs the measured phase: fixed work sized so that it lasts
	// about d on the reference host.
	phase(ctx context.Context, s *server, t *tally, d time.Duration) (*phaseResult, error)
	// check compares the server's outputs with the script's expectations.
	check(ctx context.Context, s *server, t *tally) error
	// probe returns the k-th event of the depth-1 sync probe.
	probe(k int) (home string, ev event)
	// direct returns the rule sources the traced run times through the
	// parser, compiler and conflict checker, home by home.
	direct() []directHome
	// offered describes the generator settings for the run metadata.
	offered() map[string]any
}

// directHome is one home's input to the direct lang/core/conflict timings.
type directHome struct {
	ID      string
	Users   []string
	Words   []submission
	Sources []submission
}

// phaseResult is what a measured phase observed from the generator side.
type phaseResult struct {
	windows []window // the end-to-end figures are medians over these
	primary []int64  // latency of the workload's primary operation, ns
	decide  []int64  // sync event send→200, ns
	rule    []int64  // rule submission send→response, ns
	late    []int64  // open-loop lateness, send − due, ns
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "fleet_stream":
		return newFleetStream(seed), nil
	case "home_actuation":
		return newActuation(seed), nil
	case "rule_authoring":
		return newAuthoring(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fleet_stream, home_actuation or rule_authoring)", name)
}

// loadConns is the number of load-generating connections: at most nproc,
// and two on the reference machine.
const loadConns = 2

// parallel runs fn for each of loadConns workers and returns the first error.
func parallel(fn func(worker int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, loadConns)
	for w := range loadConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = fn(w)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pipeline sends reqs over one raw connection, depth at a time, and expects
// status want for each.
func pipeline(addr string, reqs [][]byte, depth, want int, t *tally) error {
	wc, err := dialWire(addr)
	if err != nil {
		return err
	}
	defer wc.Close()
	var buf []byte
	for len(reqs) > 0 {
		n := min(depth, len(reqs))
		buf = buf[:0]
		for _, r := range reqs[:n] {
			buf = append(buf, r...)
		}
		if err := wc.send(buf); err != nil {
			return err
		}
		for range n {
			st, err := wc.recv()
			if err != nil {
				return err
			}
			t.expect("seed event", st, want, nil)
		}
		reqs = reqs[n:]
	}
	return nil
}

// ack is one event the server acknowledged, kept in its connection's send
// order (each home is driven over exactly one connection).
type ack struct {
	home string
	ev   event
}

// loopResult is one open-loop connection's observations.
type loopResult struct {
	lat, late []int64
	done      []time.Time // completion of each lat sample
	acks      []ack
}

// genTick is the open-loop generator's wake-up period. Sleeping is coarse on
// a busy two-core host (a 50–250µs sleep overshoots by about a millisecond),
// so the generator never sleeps per request: it wakes every tick and writes
// every request that has come due in one batch.
const genTick = time.Millisecond

// burstPeriod is the time between bursts of burst requests at rate per
// second.
func burstPeriod(rate float64, burst int) time.Duration {
	return time.Duration(float64(time.Second) * float64(burst) / rate)
}

// dueAt is when the k-th request of an open loop falls due: requests come in
// bursts of burst requests, one burst every period from start.
func dueAt(start time.Time, k, burst int, period time.Duration) time.Time {
	return start.Add(time.Duration(k/burst) * period)
}

// openLoop sends n sync events at rate per second over one raw connection,
// in bursts of burst events that fall due together, the first at start.
// Latency runs from the actual send to the response; lateness (send − due)
// is reported separately as generator health.
func openLoop(ctx context.Context, addr string, rate float64, burst int, start time.Time, n int,
	next func(k int) (string, event), t *tally) (*loopResult, error) {
	wc, err := dialWire(addr)
	if err != nil {
		return nil, err
	}
	defer wc.Close()
	type pending struct {
		ack
		due, sent time.Time
	}
	// pend hands sent requests to the reader in send order. Its buffer is far
	// larger than the number ever outstanding at the rates used, so the
	// writer never waits on the reader.
	pend := make(chan pending, 1<<16)
	res := &loopResult{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		broken := false
		for p := range pend {
			if broken {
				t.fail("event %s: no response after an earlier read error", p.home)
				continue
			}
			st, err := wc.recv()
			now := time.Now()
			if err != nil {
				broken = true
				t.fail("event %s: %v", p.home, err)
				continue
			}
			res.lat = append(res.lat, int64(now.Sub(p.sent)))
			res.late = append(res.late, int64(p.sent.Sub(p.due)))
			res.done = append(res.done, now)
			if t.expect("sync event", st, 200, nil) {
				res.acks = append(res.acks, p.ack)
			}
		}
	}()
	period := burstPeriod(rate, burst)
	var buf []byte
	var batch []pending
	var werr error
	for k := 0; werr == nil && k < n && ctx.Err() == nil; {
		time.Sleep(genTick)
		now := time.Now()
		buf, batch = buf[:0], batch[:0]
		for due := dueAt(start, k, burst, period); k < n && !due.After(now); due = dueAt(start, k, burst, period) {
			home, ev := next(k)
			buf = appendEventRequest(buf, home, ev.body(true))
			batch = append(batch, pending{ack: ack{home, ev}, due: due})
			k++
		}
		if len(batch) == 0 {
			continue
		}
		sent := time.Now()
		if werr = wc.send(buf); werr != nil {
			t.fail("event write: %v", werr)
		}
		for _, p := range batch {
			p.sent = sent
			pend <- p
		}
	}
	close(pend)
	<-done
	return res, werr
}

// syncProbe sends n sync events one at a time (depth 1) and returns each
// round trip in ns; the traced run subtracts the sink spans from it.
func syncProbe(addr string, n int, next func(k int) (string, event), t *tally) ([]int64, error) {
	wc, err := dialWire(addr)
	if err != nil {
		return nil, err
	}
	defer wc.Close()
	rtt := make([]int64, 0, n)
	var buf []byte
	for k := range n {
		home, ev := next(k)
		buf = appendEventRequest(buf[:0], home, ev.body(true))
		t0 := time.Now()
		if err := wc.send(buf); err != nil {
			return rtt, err
		}
		st, err := wc.recv()
		if err != nil {
			return rtt, err
		}
		rtt = append(rtt, int64(time.Since(t0)))
		t.expect("probe event", st, 200, nil)
	}
	return rtt, nil
}
