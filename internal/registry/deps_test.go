package registry

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/simplex"
)

func ruleIDs(rules []*core.Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.ID
	}
	return out
}

// byDepKey looks a dependency key up in the interned index (ByDepID) and
// checks the answer against a recomputation from every registered rule's
// condition, core.CondDeps(r.Cond).IDsIn(db.Symtab()), in insertion order:
// the index may neither miss a rule nor keep a removed one.
func byDepKey(t *testing.T, db *DB, key string) []*core.Rule {
	t.Helper()
	id, ok := db.Symtab().Lookup(key)
	if !ok {
		return nil // never interned: no rule can depend on it
	}
	got := db.ByDepID(id)
	var want []*core.Rule
	for _, r := range db.All() {
		if slices.Contains(core.CondDeps(r.Cond).IDsIn(db.Symtab()), id) {
			want = append(want, r)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ByDepID(%q) = %v, recomputed from conditions %v", key, ruleIDs(got), ruleIDs(want))
	}
	return got
}

func TestByDepIndexMaintenance(t *testing.T) {
	db := New()
	temp := &core.Rule{
		ID: "temp", Owner: "tom", Device: core.DeviceRef{Name: "fan"},
		Action: core.Action{Verb: "turn-on"},
		Cond:   &core.Compare{Var: "temperature", Op: simplex.GT, Value: 28},
	}
	pres := &core.Rule{
		ID: "pres", Owner: "tom", Device: core.DeviceRef{Name: "lamp"},
		Action: core.Action{Verb: "turn-on"},
		Cond: &core.And{Terms: []core.Condition{
			&core.Presence{Person: "tom", Place: "hall"},
			&core.TimeWindow{FromMin: 0, ToMin: 6 * 60, Weekday: -1},
		}},
	}
	for _, r := range []*core.Rule{temp, pres} {
		if err := db.Add(r); err != nil {
			t.Fatal(err)
		}
	}

	if got := ruleIDs(byDepKey(t, db, core.NumberDepKey("temperature"))); len(got) != 1 || got[0] != "temp" {
		t.Errorf("ByDepID(num/temperature) = %v", got)
	}
	if got := ruleIDs(byDepKey(t, db, core.LocationDepKey("tom"))); len(got) != 1 || got[0] != "pres" {
		t.Errorf("ByDepID(loc/tom) = %v", got)
	}
	if got := byDepKey(t, db, "num/nothing-reads-this"); len(got) != 0 {
		t.Errorf("ByDepID(unused key) = %v", ruleIDs(got))
	}
	if got := ruleIDs(db.TimeDependent()); len(got) != 1 || got[0] != "pres" {
		t.Errorf("TimeDependent() = %v", got)
	}

	if err := db.Remove("pres"); err != nil {
		t.Fatal(err)
	}
	if got := byDepKey(t, db, core.LocationDepKey("tom")); len(got) != 0 {
		t.Errorf("ByDepID(loc/tom) after remove = %v", ruleIDs(got))
	}
	if got := db.TimeDependent(); len(got) != 0 {
		t.Errorf("TimeDependent() after remove = %v", ruleIDs(got))
	}
	if got := ruleIDs(byDepKey(t, db, core.NumberDepKey("temperature"))); len(got) != 1 || got[0] != "temp" {
		t.Errorf("ByDepID(num/temperature) after unrelated remove = %v", got)
	}
}

func TestGenerationBumpsOnChurn(t *testing.T) {
	db := New()
	g0 := db.Generation()
	if err := db.Add(simpleRule("a", "u", "tv")); err != nil {
		t.Fatal(err)
	}
	g1 := db.Generation()
	if g1 == g0 {
		t.Error("Add must bump the generation")
	}
	if err := db.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if db.Generation() == g1 {
		t.Error("Remove must bump the generation")
	}
	// Failed operations leave the generation alone.
	before := db.Generation()
	if err := db.Remove("a"); err == nil {
		t.Fatal("expected remove of missing rule to fail")
	}
	if db.Generation() != before {
		t.Error("failed Remove must not bump the generation")
	}
}
