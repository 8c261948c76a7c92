package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/vocab"
)

// probeEvents is the length of the depth-1 sync probe the traced run sends
// after its phase to split a round trip into wire and sink time.
const probeEvents = 2000

// tracedResult is what the traced session observed beyond the phase.
type tracedResult struct {
	*sessionResult
	setupSpans, phaseSpans, probeSpans map[string]seamSummary
	before, after                      scrape
	statsBefore, statsAfter            hubStats
	probeRTT                           []int64
	symbols                            float64
	parse, compile, find               []int64
}

// tracedSession runs the traced server through one seeding and phase, then
// reads its spans and metrics, runs the sync probe and times the direct
// parser, compiler and conflict-checker calls.
func tracedSession(ctx context.Context, cfg config, t *tally, self string) (*tracedResult, error) {
	tr := &tracedResult{}
	h := hooks{
		before: func(s *server) error {
			var err error
			if tr.statsBefore, err = s.stats(); err != nil {
				return err
			}
			if tr.before, err = s.metrics(); err != nil {
				return err
			}
			// Read (and reset) the spans last, so the two reads above stay
			// out of the phase's interval.
			tr.setupSpans, err = spans(s)
			return err
		},
		phaseDone: func(s *server) error {
			var err error
			if tr.phaseSpans, err = spans(s); err != nil {
				return err
			}
			if tr.statsAfter, err = s.stats(); err != nil {
				return err
			}
			tr.after, err = s.metrics()
			return err
		},
		after: func(s *server, w workload) error {
			var err error
			homes := w.direct()
			n := 0.0
			for _, dh := range homes {
				var hs struct {
					Symbols struct {
						Symbols int `json:"symbols"`
					} `json:"symbols"`
				}
				if err := s.getJSON("/fleet/homes/"+dh.ID+"/stats", &hs); err != nil {
					return err
				}
				tr.symbols += float64(hs.Symbols.Symbols)
				n++
			}
			tr.symbols = ratio(tr.symbols, n)
			if tr.probeRTT, err = syncProbe(s.raw, probeEvents, w.probe, t); err != nil {
				return fmt.Errorf("probe: %w", err)
			}
			if tr.probeSpans, err = spans(s); err != nil {
				return err
			}
			return tr.timeDirect(s, homes)
		},
	}
	var err error
	tr.sessionResult, err = session(ctx, cfg, t, self, []string{"serve-traced"}, 1, false, h)
	return tr, err
}

// spans reads and resets the traced server's seam summaries.
func spans(s *server) (map[string]seamSummary, error) {
	st, body, err := s.doAt(s.admin, http.MethodGet, "/perfbench/spans?reset=1", nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("spans: status %d", st)
	}
	out := map[string]seamSummary{}
	return out, json.Unmarshal(body, &out)
}

// timeDirect times lang.Parse, core.Compiler.CompileRule and
// conflict.Checker.FindConflicts on each home's workload rule sources
// against the rules the home holds now, rebuilt from GET …/rules over a
// lexicon with the home's users and words.
func (tr *tracedResult) timeDirect(s *server, homes []directHome) error {
	for _, dh := range homes {
		var rules []struct {
			ID, Owner, Source string
		}
		if err := s.getJSON("/fleet/homes/"+dh.ID+"/rules", &rules); err != nil {
			return err
		}
		lex := vocab.Default()
		for _, u := range dh.Users {
			if err := lex.Add(vocab.Entry{Phrase: u, Kind: vocab.KindPerson}); err != nil {
				return err
			}
		}
		for _, w := range dh.Words {
			if err := defineWord(lex, w); err != nil {
				return fmt.Errorf("word %q: %w", w.Source, err)
			}
		}
		compiler := core.NewCompiler(lex)
		var existing []*core.Rule
		for _, r := range rules {
			rule, err := compileSource(lex, compiler, r.Source, r.ID, r.Owner)
			if err != nil {
				return fmt.Errorf("existing rule %s: %w", r.ID, err)
			}
			existing = append(existing, rule)
		}
		var checker conflict.Checker
		for _, src := range dh.Sources {
			t0 := time.Now()
			cmd, err := lang.Parse(src.Source, lex)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("parse %q: %w", src.Source, err)
			}
			def, ok := cmd.(*lang.RuleDef)
			if !ok {
				continue // a word definition: parsed, nothing to compile
			}
			rule, err := compiler.CompileRule(def, "perfbench-probe", src.Owner)
			t2 := time.Now()
			if err != nil {
				return fmt.Errorf("compile %q: %w", src.Source, err)
			}
			var cands []*core.Rule
			for _, r := range existing {
				if r.Device.Matches(rule.Device) {
					cands = append(cands, r)
				}
			}
			t3 := time.Now()
			if _, err := checker.FindConflicts(rule, cands); err != nil {
				return fmt.Errorf("conflicts %q: %w", src.Source, err)
			}
			t4 := time.Now()
			tr.parse = append(tr.parse, int64(t1.Sub(t0)))
			tr.compile = append(tr.compile, int64(t2.Sub(t1)))
			tr.find = append(tr.find, int64(t4.Sub(t3)))
		}
	}
	return nil
}

// defineWord applies a "Let's call…" definition to lex the way the fleet
// home does.
func defineWord(lex *vocab.Lexicon, w submission) error {
	cmd, err := lang.Parse(w.Source, lex)
	if err != nil {
		return err
	}
	switch c := cmd.(type) {
	case *lang.CondDef:
		return lex.DefineCondWord(c.Name, c.Expr.String(), w.Owner)
	case *lang.ConfDef:
		parts := make([]string, len(c.Confs))
		for i, item := range c.Confs {
			parts[i] = item.String()
		}
		return lex.DefineConfWord(c.Name, strings.Join(parts, " and "), w.Owner)
	}
	return fmt.Errorf("not a word definition: %T", cmd)
}

func compileSource(lex *vocab.Lexicon, c *core.Compiler, source, id, owner string) (*core.Rule, error) {
	cmd, err := lang.Parse(source, lex)
	if err != nil {
		return nil, err
	}
	def, ok := cmd.(*lang.RuleDef)
	if !ok {
		return nil, fmt.Errorf("%q is not a rule", source)
	}
	return c.CompileRule(def, id, owner)
}

// perLayer computes the traced invocation's metrics from the untraced
// session u and the traced session tr. A metric of a layer the workload
// does not exercise reads 0.
func perLayer(workload string, u *sessionResult, tr *tracedResult) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ph, probe := tr.phaseSpans, tr.probeSpans
	// seam prefers the phase's spans and falls back to set-up's for seams
	// the workload exercises only while seeding (rule submissions, store
	// appends and ring routing on the event workloads).
	seam := func(name string) seamSummary {
		if ph[name].Count > 0 {
			return ph[name]
		}
		return tr.setupSpans[name]
	}
	d := func(name string) float64 { return delta(tr.before, tr.after, name) }

	rtt := quantile(tr.probeRTT, 0.5)
	put("rawhttp.client_rtt_us_p50", us(rtt), "us")
	put("rawhttp.self_us_p50", us(rtt-probe[seamAdmit].P50-probe[seamDeliver].P50), "us")
	put("rawhttp.keepalive_reuse_frac", ratio(d("cadel_http_keepalive_reuse_total"), d("cadel_ingest_events_decoded_total")), "frac")

	decode := histQuantile(tr.before, tr.after, "cadel_ingest_decode_duration_ns", 0.5) / 1e3
	put("ingest.admit_us_p50", us(ph[seamAdmit].P50), "us")
	put("ingest.decode_us_p50", decode, "us")
	shed := d(`cadel_ingest_shed_total{cause="rate"}`) + d(`cadel_ingest_shed_total{cause="backlog"}`)
	put("ingest.shed_frac", ratio(shed, shed+d("cadel_events_posted_total")), "frac")

	put("fleet.deliver_wait_us_p50", us(ph[seamDeliver].P50)-decode, "us")
	put("fleet.deliver_wait_us_p99", us(ph[seamDeliver].P99)-decode, "us")
	put("fleet.backlog_p99", float64(ph[seamBacklog].P99), "count")
	put("fleet.coalesce", ratio(float64(tr.statsAfter.Events-tr.statsBefore.Events), float64(tr.statsAfter.Passes-tr.statsBefore.Passes)), "events/pass")
	put("fleet.submit_us_p50", us(seam(seamSubmit).P50), "us")
	put("fleet.store_append_us_p50", us(seam(seamStoreAppend).P50), "us")

	perEvent, perRule := 0.0, 0.0
	st := u.stages
	switch workload {
	case "fleet_stream":
		perRule = heapKB(st["rule_homes"], st["start"], fleetRuleHomes)
		perEvent = heapKB(st["event_homes"], st["rule_homes"], fleetHomes-fleetRuleHomes)
	case "home_actuation":
		perRule = heapKB(st["seeded"], st["start"], actuationHomeCount)
	case "rule_authoring":
		perRule = heapKB(st["seeded"], st["start"], authoringHomeCount)
	}
	put("fleet.heap_kb_per_event_home", perEvent, "KB")
	put("fleet.heap_kb_per_rule_home", perRule, "KB")

	put("ring.self_us_p50", us(seam(seamRingSelf).P50), "us")

	passes := d("cadel_engine_passes_total")
	put("engine.pass_us_p50", histQuantile(tr.before, tr.after, "cadel_engine_pass_duration_ns", 0.5)/1e3, "us")
	put("engine.rules_checked_per_pass", ratio(d("cadel_engine_rules_checked_total"), passes), "rules/pass")
	put("engine.fired_per_pass", ratio(d("cadel_engine_rules_fired_total"), passes), "rules/pass")
	put("engine.symbols", tr.symbols, "count")

	put("lang.parse_us_p50", us(quantile(tr.parse, 0.5)), "us")
	put("core.compile_us_p50", us(quantile(tr.compile, 0.5)), "us")
	put("conflict.find_us_p50", us(quantile(tr.find, 0.5)), "us")

	r, tres := u.res, tr.res
	put("gen.late_p50_ms", ms(quantile(r.late, 0.5)), "ms")
	put("gen.late_p99_ms", ms(quantile(r.late, 0.99)), "ms")
	put("e2e.decide_p50_ms", ms(quantile(r.decide, 0.5)), "ms")
	put("e2e.decide_p99_ms", ms(quantile(r.decide, 0.99)), "ms")
	put("e2e.rule_p50_ms", ms(quantile(r.rule, 0.5)), "ms")
	put("trace.overhead_frac", ratio(latencyP50(tres.windows), latencyP50(r.windows))-1, "frac")
	put("trace.overhead_ops_frac", 1-ratio(opsPerSec(tres.windows), opsPerSec(r.windows)), "frac")
	return m
}

// heapKB is the live-heap growth from before to after per home, in KB.
func heapKB(after, before uint64, homes int) float64 {
	return (float64(after) - float64(before)) / float64(homes) / 1e3
}
