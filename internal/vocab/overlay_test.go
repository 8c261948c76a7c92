package vocab

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// allKinds lists every entry kind, for random choices and full sweeps.
var allKinds = []Kind{
	KindVerb, KindState, KindParameter, KindUnit, KindPlace, KindPerson,
	KindDevice, KindEvent, KindCondWord, KindConfWord, KindPeriodName, KindWeekday,
}

func TestDefaultSharesOneBase(t *testing.T) {
	a, b := Default(), Default()
	if a.base == nil || a.base != b.base {
		t.Fatal("Default lexicons do not share one base table")
	}
	if a.own.byKind != nil || a.dead != nil {
		t.Fatal("a fresh Default lexicon must start with an empty overlay")
	}
	want, _ := json.Marshal(englishTable())
	got, _ := json.Marshal(a)
	if !bytes.Equal(got, want) {
		t.Fatal("a fresh overlay does not serialize like the private default table")
	}
}

// TestOverlayMatchesPrivateCopy drives the same seeded random sequence of
// mutations and reads against an overlay on the shared base and against a
// private copy of the whole table (englishTable, which adds the entries in
// the base's order); every answer must be identical.
func TestOverlayMatchesPrivateCopy(t *testing.T) {
	phrases := []string{
		"hot and stuffy", "half-lighting", "at least five", "turn on the light",
		"tom", "emily", "open", "on", "home", "second", "at", "in the hall",
		"living", "living room sofa", "night owl", "turn",
	}
	for _, e := range englishTable().own.byKind {
		for p := range e {
			phrases = append(phrases, p)
		}
	}
	// Map iteration order is random; sort so the seed alone fixes the run.
	sort.Strings(phrases)
	filler := []string{"the", "living", "room", "on", "air", "at", "least", "20", "degrees", "x"}

	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ov, ref := Default(), englishTable()
		pick := func() string { return phrases[rng.Intn(len(phrases))] }
		kind := func() Kind { return allKinds[rng.Intn(len(allKinds))] }
		for step := 0; step < 3000; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(8); op {
			case 0:
				e := Entry{Phrase: pick(), Kind: kind(), Canon: fmt.Sprintf("c%d", step)}
				sameErr(t, where+" Add", ov.Add(e), ref.Add(e))
			case 1:
				name, src := pick(), fmt.Sprintf("src %d", step)
				sameErr(t, where+" DefineCondWord",
					ov.DefineCondWord(name, src, "tom"), ref.DefineCondWord(name, src, "tom"))
			case 2:
				name, src := pick(), fmt.Sprintf("src %d", step)
				sameErr(t, where+" DefineConfWord",
					ov.DefineConfWord(name, src, "alan"), ref.DefineConfWord(name, src, "alan"))
			case 3, 4:
				k, p := kind(), pick()
				sameErr(t, where+" Remove", ov.Remove(k, p), ref.Remove(k, p))
			case 5:
				k, p := kind(), pick()
				ge, gok := ov.Lookup(k, p)
				we, wok := ref.Lookup(k, p)
				if gok != wok || !reflect.DeepEqual(ge, we) {
					t.Fatalf("%s Lookup(%v, %q) = %+v,%v; private copy %+v,%v", where, k, p, ge, gok, we, wok)
				}
			case 6:
				toks := strings.Fields(pick())
				for n := rng.Intn(3); n > 0; n-- {
					toks = append(toks, filler[rng.Intn(len(filler))])
				}
				if rng.Intn(4) == 0 {
					toks = toks[:rng.Intn(len(toks)+1)]
				}
				var kinds []Kind
				for n := rng.Intn(4); n > 0; n-- {
					kinds = append(kinds, kind())
				}
				ge, gn, gok := ov.MatchLongest(toks, kinds...)
				we, wn, wok := ref.MatchLongest(toks, kinds...)
				if gok != wok || gn != wn || !reflect.DeepEqual(ge, we) {
					t.Fatalf("%s MatchLongest(%q, %v) = %+v/%d/%v; private copy %+v/%d/%v",
						where, toks, kinds, ge, gn, gok, we, wn, wok)
				}
			case 7:
				k := kind()
				if g, w := ov.Entries(k), ref.Entries(k); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s Entries(%v): overlay %d entries, private copy %d", where, k, len(g), len(w))
				}
			}
		}
		g, _ := json.Marshal(ov)
		w, _ := json.Marshal(ref)
		if !bytes.Equal(g, w) {
			t.Fatalf("seed %d: overlay and private copy serialize differently", seed)
		}
	}
}

func sameErr(t *testing.T, where string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: overlay error %v, private copy error %v", where, got, want)
	}
}

// TestOverlayTieOrder pins the one ordering rule the merge must reproduce:
// among equal-length matches, base entries come first, then the overlay's
// in the order they were added — also for a base phrase removed and
// re-added.
func TestOverlayTieOrder(t *testing.T) {
	l := Default()
	if err := l.Add(Entry{Phrase: "open", Kind: KindPerson}); err != nil {
		t.Fatal(err)
	}
	if e, _, _ := l.MatchLongest([]string{"open"}, KindPerson, KindVerb, KindState); e.Kind != KindVerb {
		t.Fatalf("tie went to %v, want the base verb", e.Kind)
	}
	if err := l.Remove(KindVerb, "open"); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(Entry{Phrase: "open", Kind: KindVerb, Canon: "open-up"}); err != nil {
		t.Fatal(err)
	}
	if e, _, _ := l.MatchLongest([]string{"open"}, KindPerson, KindVerb, KindState); e.Kind != KindState {
		t.Fatalf("tie went to %v, want the base state (the verb was re-added after it)", e.Kind)
	}
	if e, _, _ := l.MatchLongest([]string{"open"}, KindVerb, KindPerson); e.Kind != KindPerson {
		t.Fatalf("tie went to %v, want the person (added before the new verb)", e.Kind)
	}
	if e, _ := l.Lookup(KindVerb, "open"); e.Canon != "open-up" {
		t.Fatalf("re-added verb canon = %q, want open-up", e.Canon)
	}
	if err := l.Remove(KindVerb, "open"); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Lookup(KindVerb, "open"); ok {
		t.Fatal("removing the re-added verb resurrected the base entry")
	}
	if _, ok := Default().Lookup(KindVerb, "open"); !ok {
		t.Fatal("a removal in one overlay reached the shared base")
	}
}

// TestOverlayJSONRoundTripBytes: Marshal → Unmarshal → Marshal must give
// the same bytes, for a fresh overlay and for one carrying additions and
// tombstones.
func TestOverlayJSONRoundTripBytes(t *testing.T) {
	fresh := Default()
	edited := Default()
	if err := edited.DefineCondWord("hot and stuffy", "temperature is higher than 28 degrees", "tom"); err != nil {
		t.Fatal(err)
	}
	if err := edited.Add(Entry{Phrase: "tom", Kind: KindPerson}); err != nil {
		t.Fatal(err)
	}
	if err := edited.Remove(KindPlace, "garage"); err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]*Lexicon{"fresh": fresh, "edited": edited} {
		first, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		restored := New()
		if err := json.Unmarshal(first, restored); err != nil {
			t.Fatal(err)
		}
		second, err := json.Marshal(restored)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: round trip changed the bytes", name)
		}
	}
	if _, ok := edited.Lookup(KindPlace, "garage"); ok {
		t.Fatal("tombstoned base entry still visible")
	}
}

// TestSharedBaseConcurrentOverlays reads the shared base from many
// lexicons at once while each writes its own overlay; run with -race.
func TestSharedBaseConcurrentOverlays(t *testing.T) {
	const homes = 16
	var wg sync.WaitGroup
	for h := 0; h < homes; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			l := Default()
			word := fmt.Sprintf("word of home %d", h)
			for i := 0; i < 100; i++ {
				if _, _, ok := l.MatchLongest([]string{"turn", "on", "the"}, KindVerb); !ok {
					t.Error("base verb not matched")
					return
				}
				_ = l.Entries(KindState)
				if err := l.DefineCondWord(word, "x", "tom"); err != nil {
					t.Error(err)
					return
				}
				if _, ok := l.Lookup(KindCondWord, word); !ok {
					t.Error("own word not found")
					return
				}
				if i%10 == 0 {
					if _, err := json.Marshal(l); err != nil {
						t.Error(err)
						return
					}
				}
				if err := l.Remove(KindCondWord, word); err != nil {
					t.Error(err)
					return
				}
				_ = l.Remove(KindPlace, "garage") // tombstone, then ErrNotFound
			}
		}(h)
	}
	wg.Wait()
	if _, ok := Default().Lookup(KindPlace, "garage"); !ok {
		t.Fatal("overlay removals reached the shared base")
	}
}

func TestMatchLongestZeroAlloc(t *testing.T) {
	l := Default()
	if err := l.DefineCondWord("hot and stuffy", "x", "tom"); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(KindState, "at"); err != nil {
		t.Fatal(err)
	}
	toks := strings.Fields("at least 20 degrees")
	kinds := []Kind{KindState, KindCondWord}
	if n := testing.AllocsPerRun(100, func() { l.MatchLongest(toks, kinds...) }); n != 0 {
		t.Fatalf("MatchLongest allocated %v times per call, want 0", n)
	}
}

// BenchmarkMatchLongest measures phrase matching as the parser drives it:
// a multi-kind filter over a lexicon with a small overlay.
func BenchmarkMatchLongest(b *testing.B) {
	l := Default()
	if err := l.DefineCondWord("hot and stuffy", "x", "tom"); err != nil {
		b.Fatal(err)
	}
	toks := strings.Fields("at least 20 degrees")
	kinds := []Kind{KindState, KindCondWord, KindPlace}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, n, ok := l.MatchLongest(toks, kinds...); !ok || n != 2 {
			b.Fatal("no match")
		}
	}
}
