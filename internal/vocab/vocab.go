// Package vocab holds the CADEL lexicon: the multi-word phrase tables for
// verbs, states, parameters, units, places, periods and the user-defined
// condition/configuration words created with CondDef / ConfDef commands.
//
// The paper's rule description support module lets users retrieve sensors and
// devices by keyword, sensor type or user-defined word, and lets each user
// coin new words ("hot and stuffy", "half-lighting") that stand for compound
// contexts or device configurations. The lexicon is the shared dictionary
// that both the parser (phrase recognition) and the lookup service (word →
// sensor mapping) consult.
//
// A lexicon is two layers. The base is the default English table, built once
// per process and never written again, so every lexicon from Default reads
// the same copy without locking it. On top sits the lexicon's own overlay:
// the entries added to it (a home's persons and words) and tombstones for
// the base entries removed from it. Every read merges the two layers and
// answers exactly as a private copy of the whole table would, so a home
// pays only for what it adds.
package vocab

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Kind classifies lexicon entries.
type Kind int

// Lexicon entry kinds.
const (
	KindVerb Kind = iota + 1
	KindState
	KindParameter
	KindUnit
	KindPlace
	KindPerson
	KindDevice
	KindEvent
	KindCondWord
	KindConfWord
	KindPeriodName
	KindWeekday
)

var kindNames = map[Kind]string{
	KindVerb:       "verb",
	KindState:      "state",
	KindParameter:  "parameter",
	KindUnit:       "unit",
	KindPlace:      "place",
	KindPerson:     "person",
	KindDevice:     "device",
	KindEvent:      "event",
	KindCondWord:   "cond-word",
	KindConfWord:   "conf-word",
	KindPeriodName: "period",
	KindWeekday:    "weekday",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// StateKind classifies how a state phrase is interpreted when compiled.
type StateKind string

// State phrase interpretations.
const (
	StateBool     StateKind = "bool"     // "turned on", "dark", "unlocked"
	StateCompare  StateKind = "compare"  // "is higher than 28 degrees"
	StatePresence StateKind = "presence" // "is at the living room"
	StateArrival  StateKind = "arrival"  // "returns home", "got home from work"
	StateOnAir    StateKind = "onair"    // "is on air"
)

// Meta keys used by entries.
const (
	MetaStateKind = "state-kind" // StateKind value for KindState
	MetaVar       = "var"        // state variable / parameter canonical variable
	MetaBool      = "bool"       // "true"/"false" for StateBool
	MetaOp        = "op"         // gt/ge/lt/le/eq for StateCompare
	MetaEvent     = "event"      // arrival event name for StateArrival
	MetaUnitCanon = "unit"       // canonical unit for KindUnit and KindParameter
	MetaScale     = "scale"      // multiplier to canonical unit (e.g. hours → seconds)
	MetaFromMin   = "from-min"   // period name start, minutes since midnight
	MetaToMin     = "to-min"     // period name end, minutes since midnight
	MetaSource    = "source"     // original CADEL text for user-defined words
	MetaOwner     = "owner"      // user who defined the word
	MetaDay       = "day"        // weekday number 0=Sunday
)

// Entry is a single lexicon item. Phrase is the lowercase, single-spaced
// surface form; Canon is the canonical identifier used by the compiler
// (defaults to Phrase).
type Entry struct {
	Phrase string            `json:"phrase"`
	Kind   Kind              `json:"kind"`
	Canon  string            `json:"canon"`
	Meta   map[string]string `json:"meta,omitempty"`
}

// MetaValue returns the value for a meta key, empty when absent.
func (e Entry) MetaValue(key string) string {
	return e.Meta[key]
}

// Errors reported by the lexicon.
var (
	ErrDuplicate = errors.New("vocab: word already defined")
	ErrNotFound  = errors.New("vocab: word not found")
	ErrEmpty     = errors.New("vocab: empty phrase")
)

// indexed is an entry in the first-word index, with its phrase split into
// tokens once so matching never splits it again.
type indexed struct {
	Entry
	toks []string
}

// prefixOf reports whether the entry's phrase equals a prefix of tokens.
func (x *indexed) prefixOf(tokens []string) bool {
	if len(x.toks) > len(tokens) {
		return false
	}
	for i, w := range x.toks {
		if tokens[i] != w {
			return false
		}
	}
	return true
}

// table is one layer of a lexicon. Its maps are made on the first add, so
// an unused overlay costs nothing.
type table struct {
	byKind    map[Kind]map[string]Entry
	firstWord map[string][]indexed // longest phrase first; insertion order within a length
}

func (t *table) lookup(kind Kind, phrase string) (Entry, bool) {
	e, ok := t.byKind[kind][phrase]
	return e, ok
}

// add inserts e, which the caller has checked is not yet present. The
// index insert keeps each first-word list sorted by token count, longest
// first, and places e after every entry at least as long — the order a
// stable sort of the appended list gives.
func (t *table) add(e Entry) {
	if t.byKind == nil {
		t.byKind = make(map[Kind]map[string]Entry)
		t.firstWord = make(map[string][]indexed)
	}
	km := t.byKind[e.Kind]
	if km == nil {
		km = make(map[string]Entry)
		t.byKind[e.Kind] = km
	}
	km[e.Phrase] = e
	x := indexed{Entry: e, toks: strings.Fields(e.Phrase)}
	head := x.toks[0]
	list := t.firstWord[head]
	i := len(list)
	for i > 0 && len(list[i-1].toks) < len(x.toks) {
		i--
	}
	t.firstWord[head] = slices.Insert(list, i, x)
}

// remove deletes a present entry.
func (t *table) remove(kind Kind, phrase string) {
	delete(t.byKind[kind], phrase)
	head := strings.Fields(phrase)[0]
	list := t.firstWord[head]
	for i := range list {
		if list[i].Kind == kind && list[i].Phrase == phrase {
			t.firstWord[head] = slices.Delete(list, i, i+1)
			return
		}
	}
}

// entryKey names a base entry removed from one lexicon.
type entryKey struct {
	kind   Kind
	phrase string
}

// Lexicon is a concurrency-safe dictionary of phrases: an optional frozen
// base table shared with other lexicons, plus this lexicon's own overlay.
// The zero value is not usable; construct with New or Default.
type Lexicon struct {
	mu   sync.RWMutex
	base *table                // shared and read-only; nil for New
	own  table                 // entries added to this lexicon
	dead map[entryKey]struct{} // base entries removed from this lexicon
}

// New returns an empty lexicon.
func New() *Lexicon {
	return &Lexicon{}
}

// Normalize lowercases and single-spaces a phrase.
func Normalize(phrase string) string {
	return strings.Join(strings.Fields(strings.ToLower(phrase)), " ")
}

// lookupLocked finds a live entry in either layer. A phrase is live in at
// most one: Add refuses a duplicate, and a base entry must be removed
// (tombstoned) before the overlay can take the same phrase.
func (l *Lexicon) lookupLocked(kind Kind, phrase string) (Entry, bool) {
	if e, ok := l.own.lookup(kind, phrase); ok {
		return e, true
	}
	if l.base == nil {
		return Entry{}, false
	}
	if _, gone := l.dead[entryKey{kind, phrase}]; gone {
		return Entry{}, false
	}
	return l.base.lookup(kind, phrase)
}

// Add inserts an entry. It fails with ErrDuplicate if the same phrase is
// already present under the same kind.
func (l *Lexicon) Add(e Entry) error {
	e.Phrase = Normalize(e.Phrase)
	if e.Phrase == "" {
		return ErrEmpty
	}
	if e.Canon == "" {
		e.Canon = e.Phrase
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.lookupLocked(e.Kind, e.Phrase); ok {
		return fmt.Errorf("%w: %q (%v)", ErrDuplicate, e.Phrase, e.Kind)
	}
	l.own.add(e)
	return nil
}

// MustAdd is Add for static tables; it panics on error and is used only while
// building the default lexicon.
func (l *Lexicon) MustAdd(e Entry) {
	if err := l.Add(e); err != nil {
		panic(err)
	}
}

// Remove deletes a phrase of the given kind. A base entry is not touched:
// this lexicon records a tombstone for it instead.
func (l *Lexicon) Remove(kind Kind, phrase string) error {
	phrase = Normalize(phrase)
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.own.lookup(kind, phrase); ok {
		l.own.remove(kind, phrase)
		return nil
	}
	if _, ok := l.lookupLocked(kind, phrase); !ok {
		return fmt.Errorf("%w: %q (%v)", ErrNotFound, phrase, kind)
	}
	if l.dead == nil {
		l.dead = make(map[entryKey]struct{})
	}
	l.dead[entryKey{kind, phrase}] = struct{}{}
	return nil
}

// Lookup returns the entry for an exact phrase of the given kind.
func (l *Lexicon) Lookup(kind Kind, phrase string) (Entry, bool) {
	phrase = Normalize(phrase)
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.lookupLocked(kind, phrase)
}

// MatchLongest finds the longest entry of one of the given kinds whose phrase
// equals a prefix of tokens. It returns the entry and the number of tokens
// consumed. Among matches of equal length the base entry wins, then the
// earliest added.
func (l *Lexicon) MatchLongest(tokens []string, kinds ...Kind) (Entry, int, bool) {
	if len(tokens) == 0 {
		return Entry{}, 0, false
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	var bl []indexed
	if l.base != nil {
		bl = l.base.firstWord[tokens[0]]
	}
	ol := l.own.firstWord[tokens[0]]
	// Merge the two longest-first lists, base first on ties.
	for len(bl) > 0 || len(ol) > 0 {
		var x *indexed
		fromBase := len(ol) == 0 || (len(bl) > 0 && len(bl[0].toks) >= len(ol[0].toks))
		if fromBase {
			x, bl = &bl[0], bl[1:]
		} else {
			x, ol = &ol[0], ol[1:]
		}
		if !hasKind(kinds, x.Kind) || !x.prefixOf(tokens) {
			continue
		}
		if fromBase && len(l.dead) > 0 {
			if _, gone := l.dead[entryKey{x.Kind, x.Phrase}]; gone {
				continue
			}
		}
		return x.Entry, len(x.toks), true
	}
	return Entry{}, 0, false
}

// hasKind reports whether k is in kinds; an empty filter admits every kind.
func hasKind(kinds []Kind, k Kind) bool {
	if len(kinds) == 0 {
		return true
	}
	for _, want := range kinds {
		if want == k {
			return true
		}
	}
	return false
}

// Entries returns all entries of a kind, sorted by phrase.
func (l *Lexicon) Entries(kind Kind) []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.entriesLocked(kind)
}

func (l *Lexicon) entriesLocked(kind Kind) []Entry {
	var bm map[string]Entry
	if l.base != nil {
		bm = l.base.byKind[kind]
	}
	om := l.own.byKind[kind]
	out := make([]Entry, 0, len(bm)+len(om))
	for p, e := range bm {
		if _, gone := l.dead[entryKey{kind, p}]; !gone {
			out = append(out, e)
		}
	}
	for _, e := range om {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Phrase < out[j].Phrase })
	return out
}

// DefineCondWord registers a user-defined condition word (CondDef). The
// source is the CADEL condition expression text the word stands for.
func (l *Lexicon) DefineCondWord(name, source, owner string) error {
	return l.Add(Entry{
		Phrase: name,
		Kind:   KindCondWord,
		Meta:   map[string]string{MetaSource: source, MetaOwner: owner},
	})
}

// DefineConfWord registers a user-defined configuration word (ConfDef).
func (l *Lexicon) DefineConfWord(name, source, owner string) error {
	return l.Add(Entry{
		Phrase: name,
		Kind:   KindConfWord,
		Meta:   map[string]string{MetaSource: source, MetaOwner: owner},
	})
}

// lexiconJSON is the serialized form.
type lexiconJSON struct {
	Entries []Entry `json:"entries"`
}

// MarshalJSON serializes all entries of both layers, ordered by kind and
// then by phrase.
func (l *Lexicon) MarshalJSON() ([]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var kinds []Kind
	seen := make(map[Kind]bool)
	for _, t := range []*table{l.base, &l.own} {
		if t == nil {
			continue
		}
		for k := range t.byKind {
			if !seen[k] {
				seen[k] = true
				kinds = append(kinds, k)
			}
		}
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	var doc lexiconJSON
	for _, k := range kinds {
		doc.Entries = append(doc.Entries, l.entriesLocked(k)...)
	}
	return json.Marshal(doc)
}

// UnmarshalJSON replaces the lexicon content with the serialized entries.
// The result is a private table holding every entry; it no longer reads
// the shared base.
func (l *Lexicon) UnmarshalJSON(data []byte) error {
	var doc lexiconJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	l.mu.Lock()
	l.base, l.own, l.dead = nil, table{}, nil
	l.mu.Unlock()
	for _, e := range doc.Entries {
		if err := l.Add(e); err != nil {
			return err
		}
	}
	return nil
}
