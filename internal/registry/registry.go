// Package registry implements the CADEL rule database: indexed storage for
// compiled rule objects with the access paths the paper's home server needs —
// most importantly the "extract all rules controlling the same device"
// operation that feeds conflict detection (the paper measures it at 10 ms or
// less over 10,000 rules).
//
// Rules serialize as their original CADEL source text plus metadata; import
// recompiles the source, so the database file format is human-readable CADEL,
// mirroring the paper's "CADEL DB".
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// Errors reported by the database.
var (
	ErrDuplicateID = errors.New("registry: rule id already registered")
	ErrNotFound    = errors.New("registry: rule not found")
)

// DB is a concurrency-safe, indexed rule database. Every DB owns a symbol
// table: Add interns the rule's dependency keys, binds the condition tree
// (core.Bind) and maintains the id-keyed dependency index (ByDepID) that the
// engine's incremental evaluation looks dirty ids up in. A rule object
// therefore belongs to at most one DB at a time.
type DB struct {
	mu       sync.RWMutex
	tab      *core.Symtab
	rules    map[string]*core.Rule
	byName   map[string][]*core.Rule // device name → rules
	byOwner  map[string][]*core.Rule
	byDepID  map[uint32][]*core.Rule // interned dependency key → rules
	timeDep  []*core.Rule            // rules whose readiness can change with time alone
	gen      uint64                  // bumped on every Add/Remove
	seq      uint64
	inserted []string // insertion order of rule IDs
	// retired is an upper-bound estimate of symbol ids orphaned by Remove
	// since the last compaction epoch (a removed rule's dependency ids,
	// identity symbols and condition variables may still be shared by live
	// rules, so this overcounts). The engine compares it against the symtab
	// length as its compaction watermark.
	retired uint64
}

// New returns an empty database with a fresh symbol table.
func New() *DB {
	return &DB{
		tab:     core.NewSymtab(),
		rules:   make(map[string]*core.Rule),
		byName:  make(map[string][]*core.Rule),
		byOwner: make(map[string][]*core.Rule),
		byDepID: make(map[uint32][]*core.Rule),
	}
}

// Symtab returns the database's symbol table. The engine evaluating this
// database's rules shares it, so bound conditions and interned context keys
// agree on ids; in a fleet each home's database (and thus symtab) is its
// own.
func (db *DB) Symtab() *core.Symtab { return db.tab }

// Add registers a rule and assigns its sequence number.
func (db *DB) Add(r *core.Rule) error {
	if r == nil || r.ID == "" {
		return errors.New("registry: rule must have an id")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.rules[r.ID]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateID, r.ID)
	}
	db.seq++
	r.Seq = db.seq
	r.Bound = core.Bind(r.Cond, db.tab)
	r.Holds = core.CollectHolds(r.Bound)
	r.IDSym = db.tab.Intern(r.ID) + 1
	r.OwnerSym = db.tab.Intern(r.Owner) + 1
	r.DeviceSym = db.tab.Intern(r.Device.Key()) + 1
	db.rules[r.ID] = r
	db.byName[r.Device.Name] = append(db.byName[r.Device.Name], r)
	db.byOwner[r.Owner] = append(db.byOwner[r.Owner], r)
	deps := core.CondDeps(r.Cond)
	r.DepIDs = deps.IDsIn(db.tab)
	for _, id := range r.DepIDs {
		db.byDepID[id] = append(db.byDepID[id], r)
	}
	if deps.Time {
		db.timeDep = append(db.timeDep, r)
	}
	db.inserted = append(db.inserted, r.ID)
	db.gen++
	return nil
}

// Remove deletes a rule by id.
func (db *DB) Remove(id string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.rules[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	delete(db.rules, id)
	// Emptied index entries are deleted, not left as empty slices: a home
	// churning uniquely-named rules would otherwise grow every string-keyed
	// index map without bound (the map-key twin of the symtab id leak).
	setOrDelete(db.byName, r.Device.Name, removeRule(db.byName[r.Device.Name], id))
	setOrDelete(db.byOwner, r.Owner, removeRule(db.byOwner[r.Owner], id))
	for _, depID := range r.DepIDs {
		setOrDelete(db.byDepID, depID, removeRule(db.byDepID[depID], id))
	}
	if core.CondDeps(r.Cond).Time {
		db.timeDep = removeRule(db.timeDep, id)
	}
	for i, insertedID := range db.inserted {
		if insertedID == id {
			db.inserted = append(db.inserted[:i:i], db.inserted[i+1:]...)
			break
		}
	}
	// Rough id-orphan estimate: the dependency ids, the three identity
	// symbols, and one condition-variable id per dependency (variable names
	// and dependency keys intern separately: "temperature" vs
	// "num/temperature").
	db.retired += uint64(2*len(r.DepIDs) + 3)
	db.gen++
	return nil
}

// setOrDelete stores a (possibly shrunk) index list back, dropping the map
// entry entirely once the list is empty.
func setOrDelete[K comparable](m map[K][]*core.Rule, key K, list []*core.Rule) {
	if len(list) == 0 {
		delete(m, key)
		return
	}
	m[key] = list
}

func removeRule(list []*core.Rule, id string) []*core.Rule {
	for i, r := range list {
		if r.ID == id {
			return append(list[:i:i], list[i+1:]...)
		}
	}
	return list
}

// Get returns the rule with the given id.
func (db *DB) Get(id string) (*core.Rule, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.rules[id]
	return r, ok
}

// Len returns the number of registered rules.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.rules)
}

// All returns every rule in insertion order.
func (db *DB) All() []*core.Rule {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*core.Rule, 0, len(db.inserted))
	for _, id := range db.inserted {
		if r, ok := db.rules[id]; ok {
			out = append(out, r)
		}
	}
	return out
}

// SameDevice returns all rules whose target matches the reference — the
// indexed extraction step of the paper's conflict check (experiment E2a).
func (db *DB) SameDevice(ref core.DeviceRef) []*core.Rule {
	db.mu.RLock()
	defer db.mu.RUnlock()
	candidates := db.byName[ref.Name]
	out := make([]*core.Rule, 0, len(candidates))
	for _, r := range candidates {
		if r.Device.Matches(ref) {
			out = append(out, r)
		}
	}
	return out
}

// SameDeviceScan is the unindexed baseline for the ablation benchmark: a
// linear scan over every rule.
func (db *DB) SameDeviceScan(ref core.DeviceRef) []*core.Rule {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []*core.Rule
	for _, id := range db.inserted {
		r := db.rules[id]
		if r != nil && r.Device.Matches(ref) {
			out = append(out, r)
		}
	}
	return out
}

// ByOwner returns the rules registered by a user, in insertion order.
func (db *DB) ByOwner(owner string) []*core.Rule {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*core.Rule, len(db.byOwner[owner]))
	copy(out, db.byOwner[owner])
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// ByDepID returns the rules whose dependency set (core.CondDeps, interned
// in this database's symtab) contains the given dependency id. This is the
// inverted index behind the engine's incremental evaluation: a dirtied id
// maps straight to the rules it can affect. The returned slice is the
// index's own backing array: callers must not modify it and should treat it
// as a point-in-time snapshot (a concurrent Add or Remove replaces the
// index entry rather than mutating the returned elements in place).
func (db *DB) ByDepID(id uint32) []*core.Rule {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.byDepID[id]
}

// TimeDependent returns the rules whose readiness can change with the
// passage of time alone (time windows, duration holds, arrival TTLs). The
// engine re-evaluates them whenever the clock advances, regardless of which
// context keys were dirtied.
func (db *DB) TimeDependent() []*core.Rule {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*core.Rule, len(db.timeDep))
	copy(out, db.timeDep)
	return out
}

// Generation returns a counter that increments on every Add and Remove. The
// engine compares it against the generation of its last pass to detect rule
// churn without diffing the whole database.
func (db *DB) Generation() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.gen
}

// Retired returns the upper-bound estimate of symbol ids orphaned by rule
// removals since the last compaction epoch. The engine's dead-id watermark
// reads it; CompactSymtab resets it.
func (db *DB) Retired() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.retired
}

// CompactResult reports one symbol-compaction epoch.
type CompactResult struct {
	// Before and After are the symtab lengths around the epoch.
	Before, After int
	// Epoch is the symtab's epoch counter after compaction.
	Epoch uint64
}

// CompactSymtab runs one symbol-compaction epoch over the database and its
// symbol table, coordinating every id holder under the database lock so no
// Add or Remove can interleave with the renumbering:
//
//  1. every registered rule's ids are marked live (identity symbols,
//     dependency ids, bound condition tree), then mark — typically the
//     engine marking its context's populated slots — adds the rest;
//  2. the symtab compacts, renumbering live ids densely;
//  3. every rule is rewritten through the remap table and the id-keyed
//     dependency index is rebuilt;
//  4. remapped hands the remap table to the caller so it can rewrite its own
//     id-indexed state (context slices, engine reconciliation state) before
//     anything can evaluate again.
//
// ifGen guards against state the caller synced going stale: when the
// database generation no longer equals it, some rule was added or removed
// after the caller's last sync and the epoch is refused (ok=false) — the
// caller retries at its next sync point. Both callbacks run under the
// database lock and must not call back into the database.
func (db *DB) CompactSymtab(ifGen uint64, mark func(live *core.IDSet), remapped func(remap []uint32)) (CompactResult, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.gen != ifGen {
		return CompactResult{}, false
	}
	live := &core.IDSet{}
	for _, r := range db.rules {
		r.MarkLiveIDs(live)
	}
	if mark != nil {
		mark(live)
	}
	res := CompactResult{Before: db.tab.Len()}
	remap, epoch := db.tab.Compact(live)
	res.After, res.Epoch = db.tab.Len(), epoch
	byDepID := make(map[uint32][]*core.Rule, len(db.byDepID))
	for _, id := range db.inserted {
		r := db.rules[id]
		r.RemapIDs(remap)
		for _, dep := range r.DepIDs {
			byDepID[dep] = append(byDepID[dep], r)
		}
	}
	db.byDepID = byDepID
	if remapped != nil {
		remapped(remap)
	}
	db.retired = 0
	return res, true
}

// Record is the serialized form of one rule: its CADEL source plus metadata.
// The database file format and the fleet store's rule records both use it, so
// a persisted rule is always human-readable CADEL.
type Record struct {
	ID     string `json:"id"`
	Owner  string `json:"owner"`
	Source string `json:"source"`
}

type exportDoc struct {
	Rules []Record `json:"rules"`
}

// Records returns every rule's serialized form in insertion order. The fleet
// store snapshots a home's rule database through this.
func (db *DB) Records() []Record {
	rules := db.All()
	out := make([]Record, 0, len(rules))
	for _, r := range rules {
		out = append(out, Record{ID: r.ID, Owner: r.Owner, Source: r.Source})
	}
	return out
}

// Export serializes all rules (insertion order) as JSON-wrapped CADEL
// source. This is the import/export mechanism of Sect. 4.3(iv).
func (db *DB) Export() ([]byte, error) {
	return json.MarshalIndent(exportDoc{Rules: db.Records()}, "", "  ")
}

// CompileFunc recompiles one exported rule. The server wires this to the
// CADEL parser + compiler.
type CompileFunc func(source, id, owner string) (*core.Rule, error)

// Import adds every rule from an Export document, recompiling each source.
// It stops at the first error.
func (db *DB) Import(data []byte, compile CompileFunc) (int, error) {
	var doc exportDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("registry: decode import: %w", err)
	}
	count := 0
	for _, er := range doc.Rules {
		rule, err := compile(er.Source, er.ID, er.Owner)
		if err != nil {
			return count, fmt.Errorf("registry: recompile %q: %w", er.ID, err)
		}
		if err := db.Add(rule); err != nil {
			return count, err
		}
		count++
	}
	return count, nil
}
