package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/vocab"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []int64{50, 10, 40, 20, 30}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.01, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {0.99, 50}, {1, 50}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %d, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name may hold spaces and parentheses.
	line := "4242 (home (srv) x) S 1 4242 4242 0 -1 4194560 1370 0 0 0 731 117 0 0 20 0 9 0 123 1 2 3\n"
	got, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if got != 731+117 {
		t.Fatalf("ticks = %d, want %d", got, 731+117)
	}
	if _, err := parseProcStat([]byte("4242 (x) S 1 2")); err == nil {
		t.Fatal("short stat line parsed")
	}
}

func TestParseHeapAlloc(t *testing.T) {
	profile := "heap profile: 1: 2 [3: 4] @ heap/1048576\n1: 2 [3: 4] @ 0x1 0x2\n\n" +
		"# runtime.MemStats\n# Alloc = 111\n# TotalAlloc = 999\n# Sys = 5\n# HeapAlloc = 123456\n# HeapSys = 7\n"
	got, err := parseHeapAlloc([]byte(profile))
	if err != nil || got != 123456 {
		t.Fatalf("HeapAlloc = %d, %v; want 123456", got, err)
	}
	if _, err := parseHeapAlloc([]byte("# Alloc = 1\n")); err == nil {
		t.Fatal("profile without HeapAlloc parsed")
	}
}

func TestScrapeAndHistogramQuantile(t *testing.T) {
	before, err := parseScrape([]byte(`# HELP x y
# TYPE h histogram
h_bucket{le="1"} 0
h_bucket{le="3"} 10
h_bucket{le="7"} 10
h_bucket{le="+Inf"} 10
h_sum 20
h_count 10
c_total{cause="rate"} 5
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape([]byte(`h_bucket{le="1"} 0
h_bucket{le="3"} 12
h_bucket{le="7"} 40
h_bucket{le="+Inf"} 41
c_total{cause="rate"} 9
`))
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(before, after, `c_total{cause="rate"}`); d != 4 {
		t.Fatalf("delta = %v, want 4", d)
	}
	// Interval counts: 2 in (1,3], 28 in (3,7], 1 above 7.
	if got := histQuantile(before, after, "h", 0.05); got != 3 {
		t.Errorf("p5 = %v, want 3", got)
	}
	if got := histQuantile(before, after, "h", 0.5); got != 7 {
		t.Errorf("p50 = %v, want 7", got)
	}
	if got := histQuantile(before, after, "h", 1); got != 7 {
		t.Errorf("p100 in the +Inf bucket = %v, want the largest finite bound 7", got)
	}
	if got := histQuantile(after, after, "h", 0.5); got != 0 {
		t.Errorf("empty interval p50 = %v, want 0", got)
	}
}

func TestEventRequestFraming(t *testing.T) {
	body := climate("living room", 30, 50).body(true)
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("body %s: %v", body, err)
	}
	if m["sync"] != true || m["location"] != "living room" || m["vars"].(map[string]any)["temperature"] != "30" {
		t.Fatalf("body decodes to %v", m)
	}
	req := string(appendEventRequest(nil, "h1", []byte(`{"a":1}`)))
	want := "POST /fleet/homes/h1/events HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}"
	if req != want {
		t.Fatalf("request\n%q\nwant\n%q", req, want)
	}
}

func TestReadResponse(t *testing.T) {
	stream := "HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\n\r\n" +
		"HTTP/1.1 429 Too Many Requests\r\nretry-after: 1\r\ncontent-length: 13\r\n\r\n{\"error\":\"x\"}" +
		"HTTP/1.1 204 No Content\r\n\r\n" +
		"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\n"
	br := bufio.NewReader(strings.NewReader(stream))
	var body []byte
	for _, want := range []struct {
		status int
		body   string
	}{{202, ""}, {429, `{"error":"x"}`}, {204, ""}} {
		st, err := readResponse(br, &body)
		if err != nil || st != want.status || string(body) != want.body {
			t.Fatalf("got %d %q %v, want %d %q", st, body, err, want.status, want.body)
		}
	}
	if _, err := readResponse(br, &body); !errors.Is(err, errNoLength) {
		t.Fatalf("200 without Content-Length: err = %v, want errNoLength", err)
	}
	if _, err := readResponse(bufio.NewReader(strings.NewReader("HTTP/1.1 2")), &body); err == nil {
		t.Fatal("truncated status line parsed")
	}
}

func TestCutWindows(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	marks := []cpuMark{{at(0), 1}, {at(1000), 1.5}, {at(2000), 2.5}, {at(2100), 2.6}}
	ops := []time.Time{at(0), at(999), at(1000), at(1500), at(1999), at(2050), at(3000)}
	prim := []timed{{at(10), 7}, {at(1200), 9}, {at(1300), 11}}
	ws := cutWindows(marks, ops, prim)
	if len(ws) != 2 {
		t.Fatalf("%d windows, want 2 (the 100ms tail is dropped)", len(ws))
	}
	if ws[0].ops != 2 || ws[1].ops != 3 || ws[0].cpu != 0.5 || ws[1].cpu != 1 {
		t.Fatalf("windows %+v", ws)
	}
	if len(ws[0].lat) != 1 || len(ws[1].lat) != 2 {
		t.Fatalf("latencies %v %v", ws[0].lat, ws[1].lat)
	}
	if got := opsPerSec(ws); got != 2.5 {
		t.Errorf("opsPerSec = %v, want 2.5", got)
	}
	if got := cpuPerOp(ws); math.Abs(got-1.5/5) > 1e-12 {
		t.Errorf("cpuPerOp = %v", got)
	}
	if got := latencyP50(ws); got != 8 {
		t.Errorf("latencyP50 = %v, want 8", got)
	}
}

func TestDueAtBursts(t *testing.T) {
	t0 := time.Unix(1000, 0)
	for k, want := range []int{0, 0, 0, 0, 8, 8, 8, 8, 16} {
		if got := dueAt(t0, k, 4, 8*time.Millisecond).Sub(t0); got != time.Duration(want)*time.Millisecond {
			t.Errorf("request %d of bursts of 4 is due at %v, want %dms", k, got, want)
		}
	}
	if got := dueAt(t0, 3, 1, time.Millisecond).Sub(t0); got != 3*time.Millisecond {
		t.Errorf("request 3 without bursts is due at %v, want 3ms", got)
	}
}

// TestCompareLogs drives two hubs through the same home_actuation home and
// events, as the output check does against the server, and checks the
// comparison accepts equal logs and names the first difference.
func TestCompareLogs(t *testing.T) {
	h := actuationScript(7, 3)
	logs := make([][]engine.Fired, 2)
	for i := range logs {
		hub, err := fleet.NewHub(fleet.WithLogLimit(1024))
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range actuationUsers {
			if err := hub.RegisterUser(h.ID, u); err != nil {
				t.Fatal(err)
			}
		}
		for _, sub := range append(append([]submission(nil), h.Words...), h.Rules...) {
			if _, err := hub.Submit(h.ID, sub.Source, sub.Owner); err != nil {
				t.Fatalf("%q: %v", sub.Source, err)
			}
		}
		for _, p := range actuationPriorities {
			if err := hub.SetPriority(h.ID, core.DeviceRef{Name: p.Device}, p.Users, p.Context); err != nil {
				t.Fatal(err)
			}
		}
		ev := newActuationEvents(7, 3)
		for range 200 {
			e := ev.next()
			if err := hub.PostEventSync(h.ID, e.DeviceType, e.Name, e.Location, e.varsMap()); err != nil {
				t.Fatal(err)
			}
		}
		if logs[i], err = hub.Log(h.ID); err != nil {
			t.Fatal(err)
		}
		hub.Close()
	}
	if len(logs[0]) < 10 {
		t.Fatalf("only %d fired actions; the script should fire often", len(logs[0]))
	}
	served := make([]firedEntry, len(logs[0]))
	for i, f := range logs[0] {
		served[i] = firedEntry{Rule: f.Rule.ID, Device: f.Rule.Device.Key(), Action: f.Rule.Action.String()}
	}
	if err := compareLogs(served, logs[1]); err != nil {
		t.Fatalf("equal replays differ: %v", err)
	}
	served[5].Rule = "someone-else"
	if err := compareLogs(served, logs[1]); err == nil || !strings.Contains(err.Error(), "fired action 5") {
		t.Fatalf("changed entry: err = %v", err)
	}
	if err := compareLogs(served[:3], logs[1]); err == nil {
		t.Fatal("short log accepted")
	}
}

// TestAuthoringScriptMatchesHub checks the script's expectations — status,
// rule id, word and exact conflict set — against an in-process hub for a
// home grown to its target size and then churned.
func TestAuthoringScriptMatchesHub(t *testing.T) {
	hub, err := fleet.NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	h := newAuthoringHome(3, 1)
	for _, u := range actuationUsers {
		if err := hub.RegisterUser(h.ID, u); err != nil {
			t.Fatal(err)
		}
	}
	kinds := map[int]int{}
	apply := func(sub submission) {
		if sub.Source == "" {
			if err := hub.RemoveRule(h.ID, sub.RuleID); err != nil {
				t.Fatalf("delete %s: %v", sub.RuleID, err)
			}
			kinds[204]++
			return
		}
		res, err := hub.Submit(h.ID, sub.Source, sub.Owner)
		status := 201
		switch {
		case errors.Is(err, fleet.ErrInconsistent):
			status = 422
		case errors.Is(err, vocab.ErrDuplicate):
			status = 409
		case err != nil:
			t.Fatalf("%q: %v", sub.Source, err)
		}
		kinds[status]++
		body := []byte("{}")
		if res != nil {
			type rb struct {
				ID string `json:"id"`
			}
			resp := struct {
				Rule        *rb    `json:"rule,omitempty"`
				DefinedWord string `json:"definedWord,omitempty"`
				Conflicts   []rb   `json:"conflicts,omitempty"`
			}{DefinedWord: res.DefinedWord}
			if res.Rule != nil {
				resp.Rule = &rb{res.Rule.ID}
			}
			for _, c := range res.Conflicts {
				resp.Conflicts = append(resp.Conflicts, rb{c.Existing.ID})
			}
			body, _ = json.Marshal(resp)
		}
		if err := submitErr(status, body, nil, sub); err != nil {
			t.Fatalf("%q: %v", sub.Source, err)
		}
	}
	for _, sub := range authoringSetupWords {
		apply(sub)
	}
	for len(h.rules) < authoringTarget {
		apply(h.next(true))
	}
	for range 400 {
		apply(h.next(false))
	}
	for _, k := range []int{201, 204, 409, 422} {
		if kinds[k] == 0 {
			t.Errorf("the churn script produced no %d answers: %v", k, kinds)
		}
	}
}
