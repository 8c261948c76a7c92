// Command perfbench is the repository's end-to-end benchmark. It drives the
// shipped cmd/homeserver binary in fleet mode over loopback from a separate
// generator process and reports end-to-end metrics; with --trace 1 it also
// runs a traced twin of the server, wired from the same public
// constructors with timing decorators at the layer seams, and reports
// per-layer metrics. See README.md for the metrics, the workloads and the
// noise findings behind their design.
//
// Build and run it from the repository root with run.sh, which builds both
// binaries from the checkout first:
//
//	bash perfbench/run.sh --workload fleet_stream --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object; the line before it
// holds the run metadata.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve-traced" {
		if err := serveTraced(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	os.Exit(run(os.Args[1:]))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string // checkout root
	bin      string // directory holding the built homeserver and perfbench
	work     string // scratch directory for server stores and logs
}

// runBudget bounds a whole invocation; the harness allows 180 seconds.
const runBudget = 170 * time.Second

// setupRepeats is how many fresh servers each untraced run seeds; set-up
// time is their median, and the last one runs the measured phase.
const setupRepeats = 3

// maxProcs is the CPU count the server may use: nproc, capped at two.
func maxProcs() int { return min(2, runtime.NumCPU()) }

func run(args []string) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{}
	fset.StringVar(&cfg.workload, "workload", "", "fleet_stream, home_actuation or rule_authoring")
	fset.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fset.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase")
	traceFlag := fset.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fset.StringVar(&cfg.root, "root", ".", "checkout root")
	fset.StringVar(&cfg.bin, "bin", "", "directory holding the built homeserver and perfbench binaries")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if cfg.bin == "" || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -bin and a positive -seconds are required (use run.sh)")
		return 2
	}
	// The generator runs on one P. Its work is writing prebuilt requests and
	// scanning responses; a second P would mostly spin looking for work,
	// taking CPU from the server on a two-core host.
	runtime.GOMAXPROCS(1)
	cfg.work = filepath.Join(cfg.bin, "..", "runs", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	defer os.RemoveAll(cfg.work)

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	res, meta, err := execute(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	metaLine, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", metaLine, resLine)
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func execute(ctx context.Context, cfg config) (*result, map[string]any, error) {
	if _, err := newWorkload(cfg.workload, cfg.seed); err != nil {
		return nil, nil, err
	}
	t := &tally{}
	homeserver := filepath.Join(cfg.bin, "homeserver")
	self := filepath.Join(cfg.bin, "perfbench")
	meta := runMeta(cfg)
	var metrics map[string]metric
	if !cfg.trace {
		u, err := session(ctx, cfg, t, homeserver, nil, setupRepeats, false, hooks{})
		if err != nil {
			return nil, nil, err
		}
		meta["server_flags"] = u.flags
		meta["offered"] = u.offered
		metrics = endToEnd(u)
	} else {
		u, err := session(ctx, cfg, t, homeserver, nil, 1, true, hooks{})
		if err != nil {
			return nil, nil, err
		}
		tr, err := tracedSession(ctx, cfg, t, self)
		if err != nil {
			return nil, nil, err
		}
		meta["server_flags"] = u.flags
		meta["traced_server_flags"] = tr.flags
		meta["offered"] = u.offered
		metrics = perLayer(cfg.workload, u, tr)
	}
	attempted, failed := t.attempted.Load(), t.failed.Load()
	return &result{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: metrics}, meta, nil
}

// hooks let the traced session observe the server around the phase.
type hooks struct {
	before    func(s *server) error             // just before the measured phase
	phaseDone func(s *server) error             // right after it, before any other request
	after     func(s *server, w workload) error // after the output check
}

// sessionResult is what one session measured.
type sessionResult struct {
	setup     []float64 // seconds per fresh server
	setupHeap uint64
	endHeap   uint64
	res       *phaseResult
	stages    map[string]uint64 // heap after each seeding stage (marks)
	flags     []string
	offered   map[string]any
}

var serverSeq int

// session seeds repeats fresh servers (bin with prefix args), timing each
// seeding, then runs the measured phase and the output check on the last.
// Every server is stopped and reaped before the next starts.
func session(ctx context.Context, cfg config, t *tally, bin string, prefix []string, repeats int, marks bool, h hooks) (*sessionResult, error) {
	out := &sessionResult{}
	for r := 0; r < repeats; r++ {
		w, err := newWorkload(cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		serverSeq++
		s, err := startServer(ctx, bin, prefix, serverProcs(cfg.workload), cfg.work, serverSeq)
		if err != nil {
			return nil, err
		}
		out.flags, out.offered = s.args, w.offered()
		res, err := measureOn(ctx, cfg, t, s, w, r == repeats-1, marks, h, out)
		if stopErr := s.stop(); err == nil && stopErr != nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
		if res != nil {
			out.res = res
		}
	}
	return out, nil
}

func measureOn(ctx context.Context, cfg config, t *tally, s *server, w workload, last, marks bool, h hooks, out *sessionResult) (*phaseResult, error) {
	var mark func(string)
	if marks {
		out.stages = map[string]uint64{}
		mark = func(stage string) {
			if b, err := s.heapBytes(); err == nil {
				out.stages[stage] = b
			} else {
				t.fail("heap at %s: %v", stage, err)
			}
		}
		mark("start")
	}
	t0 := time.Now()
	if err := w.setup(ctx, s, t, mark); err != nil {
		return nil, fmt.Errorf("seed: %w", err)
	}
	out.setup = append(out.setup, time.Since(t0).Seconds())
	if mark != nil {
		mark("seeded")
	}
	if !last {
		return nil, nil
	}
	var err error
	if out.setupHeap, err = s.heapBytes(); err != nil {
		return nil, err
	}
	if h.before != nil {
		if err := h.before(s); err != nil {
			return nil, err
		}
	}
	res, err := w.phase(ctx, s, t, time.Duration(cfg.seconds)*time.Second)
	if err != nil {
		return nil, fmt.Errorf("phase: %w", err)
	}
	if h.phaseDone != nil {
		if err := h.phaseDone(s); err != nil {
			return nil, err
		}
	}
	if out.endHeap, err = s.heapBytes(); err != nil {
		return nil, err
	}
	if err := w.check(ctx, s, t); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if h.after != nil {
		if err := h.after(s, w); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// endToEnd computes the untraced run's metrics.
func endToEnd(u *sessionResult) map[string]metric {
	r := u.res
	return map[string]metric{
		"setup_s":        {median(u.setup), "s"},
		"ops_per_s":      {opsPerSec(r.windows), "1/s"},
		"latency_p50_ms": {latencyP50(r.windows) / 1e6, "ms"},
		"cpu_us_per_op":  {cpuPerOp(r.windows) * 1e6, "us"},
		"setup_heap_mb":  {float64(u.setupHeap) / 1e6, "MB"},
		"end_heap_mb":    {float64(u.endHeap) / 1e6, "MB"},
	}
}

// runMeta describes the run: what was measured, on what, with what.
func runMeta(cfg config) map[string]any {
	return map[string]any{
		"workload":             cfg.workload,
		"seed":                 cfg.seed,
		"seconds":              cfg.seconds,
		"trace":                cfg.trace,
		"commit":               commit(cfg.root),
		"source_sha256":        sourceDigest(cfg.root),
		"go_version":           runtime.Version(),
		"nproc":                runtime.NumCPU(),
		"gomaxprocs_generator": runtime.GOMAXPROCS(0),
		"gomaxprocs_server":    serverProcs(cfg.workload),
		"setup_repeats":        setupRepeats,
	}
}

// commit is the checkout's git commit, when the checkout is a git work tree.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the checkout, so a
// result names the code it measured even outside git.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if name := d.Name(); !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
