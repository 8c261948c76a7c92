package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"net/http"
	_ "net/http/pprof" // the admin listener serves the heap profile, as the shipped server's does
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/rawhttp"
	"repro/internal/ring"
)

// series collects one seam's span durations (or sampled values). Past
// maxSamples it keeps a uniform reservoir, so memory stays bounded on long
// saturation runs while the quantiles stay unbiased.
type series struct {
	mu      sync.Mutex
	n       int64
	sum     int64
	samples []int64
	rng     *rand.Rand
}

const maxSamples = 1 << 20

func newSeries() *series { return &series{rng: rand.New(rand.NewPCG(1, 2))} }

func (s *series) add(v int64) {
	s.mu.Lock()
	s.n++
	s.sum += v
	if len(s.samples) < maxSamples {
		s.samples = append(s.samples, v)
	} else if j := s.rng.Int64N(s.n); j < maxSamples {
		s.samples[j] = v
	}
	s.mu.Unlock()
}

// seamSummary is one seam's summary as the traced server reports it.
type seamSummary struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	P50   int64 `json:"p50"`
	P99   int64 `json:"p99"`
}

// summary returns the seam's summary and, when reset, starts a new interval.
func (s *series) summary(reset bool) seamSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	sorted := slices.Clone(s.samples)
	out := seamSummary{Count: s.n, Sum: s.sum, P50: quantile(sorted, 0.5), P99: quantile(sorted, 0.99)}
	if reset {
		s.n, s.sum, s.samples = 0, 0, s.samples[:0]
	}
	return out
}

// Seam names the traced server reports.
const (
	seamAdmit       = "rawhttp.admit"
	seamDeliver     = "rawhttp.deliver"
	seamSubmit      = "fleet.api.post_rules"
	seamAPI         = "fleet.api"
	seamRingSelf    = "ring.self"
	seamStoreAppend = "fleet.store.append"
	seamBacklog     = "fleet.backlog"
)

// tracer holds the seams' series.
type tracer map[string]*series

func newTracer() tracer {
	t := tracer{}
	for _, name := range []string{seamAdmit, seamDeliver, seamSubmit, seamAPI, seamRingSelf, seamStoreAppend, seamBacklog} {
		t[name] = newSeries()
	}
	return t
}

// ServeHTTP answers GET /perfbench/spans with every seam's summary since
// the previous call (?reset=1 also starts a new interval).
func (t tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reset := r.URL.Query().Get("reset") == "1"
	out := make(map[string]seamSummary, len(t))
	for name, s := range t {
		out[name] = s.summary(reset)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out) // a failed write is the client's problem
}

// tracedSink times rawhttp.Sink's Admit and Deliver.
type tracedSink struct {
	inner            rawhttp.Sink
	admit, deliverSp *series
}

func (s *tracedSink) Admit(home string) (ingest.Disposition, bool) {
	t0 := time.Now()
	d, ok := s.inner.Admit(home)
	s.admit.add(int64(time.Since(t0)))
	return d, ok
}

func (s *tracedSink) Deliver(home string, ev *ingest.Event) ingest.Disposition {
	t0 := time.Now()
	d := s.inner.Deliver(home, ev)
	s.deliverSp.add(int64(time.Since(t0)))
	return d
}

func (s *tracedSink) MaxBody() int64 { return s.inner.MaxBody() }

// spanPair carries the inner handler's duration out to the ring node's
// decorator, so the node's self time is exact per request.
type spanPair struct{ inner int64 }

type spanPairKey struct{}

// tracedNode times ring.Node.ServeHTTP and records its self time: the node
// span minus the fleet handler span nested in it.
type tracedNode struct {
	node http.Handler
	self *series
}

func (n *tracedNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := &spanPair{}
	r = r.WithContext(context.WithValue(r.Context(), spanPairKey{}, p))
	t0 := time.Now()
	n.node.ServeHTTP(w, r)
	total := int64(time.Since(t0))
	if p.inner > 0 {
		n.self.add(total - p.inner)
	}
}

// tracedAPI times the fleet HTTP handler; rule submissions get their own
// seam.
type tracedAPI struct {
	inner       http.Handler
	submit, all *series
}

func (a *tracedAPI) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	a.inner.ServeHTTP(w, r)
	d := int64(time.Since(t0))
	if p, ok := r.Context().Value(spanPairKey{}).(*spanPair); ok {
		p.inner = d
	}
	a.all.add(d)
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/rules") {
		a.submit.add(d)
	}
}

// tracedStore times fleet.Store.Append.
type tracedStore struct {
	fleet.Store
	append *series
}

func (s tracedStore) Append(rec fleet.Record) error {
	t0 := time.Now()
	err := s.Store.Append(rec)
	s.append.add(int64(time.Since(t0)))
	return err
}

// serveTraced runs the traced server: the layers cmd/homeserver's runFleet
// wires, built through the same public constructors with the same options,
// with timing decorators at the public interface seams. It takes the same
// -fleet, -raw-ingest, -admin and -store flags and serves the same routes,
// plus GET /perfbench/spans on the admin listener.
func serveTraced(args []string) error {
	fs := flag.NewFlagSet("serve-traced", flag.ContinueOnError)
	addr := fs.String("fleet", "", "fleet API address")
	rawAddr := fs.String("raw-ingest", "", "raw ingest address")
	adminAddr := fs.String("admin", "", "pprof and span address")
	storeDir := fs.String("store", "", "FileStore directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr := newTracer()
	st, err := fleet.OpenFileStore(*storeDir)
	if err != nil {
		return err
	}
	hub, err := fleet.NewHub(
		fleet.WithDispatchWorkers(4),
		fleet.WithLogLimit(1024),
		fleet.WithStore(tracedStore{Store: st, append: tr[seamStoreAppend]}),
	)
	if err != nil {
		return err
	}
	defer hub.Close()
	sink := fleet.NewEventSink(hub, ingest.Limits{})
	api := &tracedAPI{inner: fleet.NewHTTPHandler(hub, fleet.WithEventSink(sink)), submit: tr[seamSubmit], all: tr[seamAPI]}
	node, err := ring.NewNode(ring.NodeConfig{Self: *addr, Hub: hub, Handler: api, Peers: []string{*addr}})
	if err != nil {
		return err
	}
	// fleet.NewRawIngest takes the concrete *ingest.Sink; this is its body
	// with the decorated sink in its place.
	raw := rawhttp.NewServer(&tracedSink{inner: sink, admit: tr[seamAdmit], deliverSp: tr[seamDeliver]},
		rawhttp.WithMetrics(hub.MetricsRegistry()))

	http.DefaultServeMux.Handle("GET /perfbench/spans", tr)
	admin := &http.Server{Addr: *adminAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 5 * time.Second}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           &tracedNode{node: node, self: tr[seamRingSelf]},
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 3)
	go func() { errc <- admin.ListenAndServe() }()
	go func() { errc <- srv.ListenAndServe() }()
	go func() { errc <- raw.ListenAndServe(*rawAddr) }()

	// Sample the deepest shard mailbox every millisecond: the backlog the
	// admission controller would shed on.
	sampler := time.NewTicker(time.Millisecond)
	defer sampler.Stop()
	var failed error
loop:
	for {
		select {
		case <-sampler.C:
			tr[seamBacklog].add(int64(slices.Max(hub.ShardQueues())))
		case err := <-errc:
			failed = err
			break loop
		case <-ctx.Done():
			break loop
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	node.SetDraining(true)
	for _, err := range []error{srv.Shutdown(shutCtx), raw.Shutdown(shutCtx), admin.Shutdown(shutCtx)} {
		if err != nil {
			log.Printf("shutdown: %v", err)
		}
	}
	if failed != nil && !errors.Is(failed, http.ErrServerClosed) && !errors.Is(failed, rawhttp.ErrServerClosed) {
		return fmt.Errorf("listener: %w", failed)
	}
	if err := hub.Quiesce(); err != nil {
		return err
	}
	return hub.Close()
}
