package engine

import (
	"errors"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// This file is the engine's half of live home migration (internal/ring):
// exporting the volatile evaluation state that the durable store records do
// not carry — context values, arrival/hold timestamps, the fired-action log —
// and importing it on a target engine without re-firing anything.
//
// The correctness argument is that arbitration is memoryless: a device's
// owner is a pure function of the current context, the registered rules and
// the priority table (passLocked recomputes readiness from
// ReadyBound and the owner from ArbitrateWinner every time the device is
// touched). So a target that (a) replays the durable records, (b) restores
// the volatile context with its original timestamps, and (c) runs one full
// reconciliation pass in quiet mode reaches exactly the ownership state the
// source had — and the next real event behaves as if the home never moved.

// StateExport is one home engine's volatile state, JSON-serializable for the
// migration transfer stream. Users, favorites, rules, words and priorities
// are NOT here: they ride in the durable fleet.Store records.
type StateExport struct {
	Now      time.Time     `json:"now"`
	EventTTL time.Duration `json:"event_ttl,omitempty"`

	Numbers   map[string]float64   `json:"numbers,omitempty"`
	Bools     map[string]bool      `json:"bools,omitempty"`
	Locations map[string]string    `json:"locations,omitempty"`
	Events    map[string]time.Time `json:"events,omitempty"` // "person|event" → arrival time
	Held      map[string]time.Time `json:"held,omitempty"`   // duration-hold key → since
	Programs  []core.Program       `json:"programs,omitempty"`

	Log []LogEntry `json:"log,omitempty"` // fired-action history, oldest first
}

// LogEntry is one Fired entry with rules flattened to their ids; the importer
// resolves them against the target's (already replayed) rule database.
type LogEntry struct {
	Time       time.Time `json:"time"`
	Rule       string    `json:"rule"`
	Suppressed []string  `json:"suppressed,omitempty"`
	Err        string    `json:"err,omitempty"`
}

// SetQuiet switches the engine in or out of quiet mode. A quiet pass updates
// readiness, holds and device ownership exactly like a normal pass, but
// dispatches nothing, logs nothing, traces nothing and publishes no metrics —
// it is invisible to every observer. Migration import runs the whole durable
// replay and the final reconciliation under quiet so that rules whose
// conditions already hold (they fired once on the source; the log proves it)
// are adopted as current owners instead of firing a second time.
func (e *Engine) SetQuiet(q bool) {
	e.mu.Lock()
	e.quiet = q
	e.mu.Unlock()
}

// ExportState snapshots the engine's volatile state for migration. The
// caller must have drained the home's event stream first (the fleet hub runs
// this on the shard goroutine after a quiesce barrier).
func (e *Engine) ExportState() *StateExport {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.ctx.Clone()
	st := &StateExport{
		Now:      c.Now,
		EventTTL: c.EventTTL,
		Programs: c.Programs,
	}
	if len(c.Numbers) > 0 {
		st.Numbers = c.Numbers
	}
	if len(c.Bools) > 0 {
		st.Bools = c.Bools
	}
	if len(c.Locations) > 0 {
		st.Locations = c.Locations
	}
	if len(c.Events) > 0 {
		st.Events = c.Events
	}
	if len(c.Held) > 0 {
		st.Held = c.Held
	}
	for _, f := range e.log {
		le := LogEntry{Time: f.Time, Rule: f.Rule.ID}
		for _, s := range f.Suppressed {
			le.Suppressed = append(le.Suppressed, s.ID)
		}
		if f.Err != nil {
			le.Err = f.Err.Error()
		}
		st.Log = append(st.Log, le)
	}
	return st
}

// ImportState restores volatile state exported by ExportState onto this
// engine and runs one quiet full-reconciliation pass, leaving device
// ownership identical to the exporter's without dispatching anything. The
// durable records (rules, users, words, priorities) must already be replayed;
// log entries whose rule id no longer resolves are dropped (a rule removed
// between export and a retried transfer cannot be re-materialized, and the
// log is observability, not state).
//
// The caller is expected to hold the engine in quiet mode across the whole
// import (SetQuiet(true) before replaying records, SetQuiet(false) after
// this returns), so no replay tick can fire either.
func (e *Engine) ImportState(st *StateExport) {
	e.mu.Lock()
	if st.EventTTL > 0 {
		e.ctx.EventTTL = st.EventTTL
	}
	// Values first, in sorted order so interning produces a deterministic id
	// layout for a given export.
	for _, k := range sortedKeys(st.Numbers) {
		e.ctx.SetNumber(k, st.Numbers[k])
	}
	for _, k := range sortedKeys(st.Bools) {
		e.ctx.SetBool(k, st.Bools[k])
	}
	for _, k := range sortedKeys(st.Locations) {
		e.ctx.SetLocation(k, st.Locations[k])
	}
	// Events and holds store "now" at record time, so the import rewinds the
	// context clock per entry to preserve the original timestamps — TTL
	// expiry and duration conditions keep their exact deadlines.
	saved := e.ctx.Now
	for _, k := range sortedKeys(st.Events) {
		person, event, ok := strings.Cut(k, "|")
		if !ok || person == "" {
			continue
		}
		e.ctx.Now = st.Events[k]
		e.ctx.RecordEvent(person, event)
	}
	for _, k := range sortedKeys(st.Held) {
		e.ctx.Now = st.Held[k]
		e.ctx.MarkHeld(k)
	}
	e.ctx.Now = saved
	if len(st.Programs) > 0 {
		e.ctx.SetPrograms(st.Programs)
	}
	// Fired log: resolve rule ids against the replayed database.
	e.log = e.log[:0]
	for _, le := range st.Log {
		r, ok := e.db.Get(le.Rule)
		if !ok {
			continue
		}
		f := Fired{Time: le.Time, Rule: r}
		for _, sid := range le.Suppressed {
			if sr, ok := e.db.Get(sid); ok {
				f.Suppressed = append(f.Suppressed, sr)
			}
		}
		if le.Err != "" {
			f.Err = errors.New(le.Err)
		}
		e.log = append(e.log, f)
	}
	e.allDirty = true
	// One full reconciliation pass adopts ownership. evaluateLocked releases
	// the lock; with quiet set it fires nothing.
	e.evaluateLocked()
}

func sortedKeys[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
