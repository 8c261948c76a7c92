package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/registry"
	"repro/internal/simplex"
)

// TestStereoHandoffTomToEmily is the paper's Fig. 1 stereo lane as an
// explicit regression test: Tom's rule owns the stereo, Emily's arrival
// makes her contextual priority order apply and takes it over, and when the
// arrival expires the stereo returns to Tom — a hand-off driven purely by
// the priority context, with both rules continuously ready, which an
// incremental evaluator misses unless it re-arbitrates on order-context
// changes. The full-scan subtest holds the reference evaluator to the same
// hard-coded expectations, so the equivalence suites' yardstick is itself
// pinned to the paper's chart.
func TestStereoHandoffTomToEmily(t *testing.T) {
	for _, mode := range []struct {
		name string
		new  func(*registry.DB, *conflict.Table, func() time.Time, Dispatcher) evaluator
	}{
		{"incremental", func(db *registry.DB, tbl *conflict.Table, now func() time.Time, d Dispatcher) evaluator {
			return New(db, tbl, now, d, WithEventTTL(30*time.Minute))
		}},
		{"full-scan", func(db *registry.DB, tbl *conflict.Table, now func() time.Time, d Dispatcher) evaluator {
			return newReference(db, tbl, now, d, 30*time.Minute)
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			db := registry.New()
			tbl := conflict.NewTable()
			rec := &recorder{}
			clock := &fakeClock{now: time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)}
			e := mode.new(db, tbl, clock.Now, rec.dispatch)

			stereo := core.DeviceRef{Name: "stereo"}
			if err := db.Add(&core.Rule{
				ID: "tom-stereo", Owner: "tom", Device: stereo,
				Action: core.Action{Verb: "play", Settings: map[string]core.Value{"volume": {IsNumber: true, Number: 5}}},
				Cond:   &core.Presence{Person: "tom", Place: "living room"},
			}); err != nil {
				t.Fatal(err)
			}
			if err := db.Add(&core.Rule{
				ID: "emily-stereo", Owner: "emily", Device: stereo,
				Action: core.Action{Verb: "play", Settings: map[string]core.Value{"volume": {IsNumber: true, Number: 2}}},
				Cond:   &core.Presence{Person: "emily", Place: "living room"},
			}); err != nil {
				t.Fatal(err)
			}
			tbl.Set(conflict.Order{
				Device:        stereo,
				Context:       &core.Arrival{Person: "emily", Event: "home-from-shopping"},
				ContextSource: "emily got home from shopping",
				Users:         []string{"emily", "tom"},
			})
			e.SetUsers([]string{"tom", "emily"})

			// Tom alone: his rule owns the stereo.
			e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
				map[string]string{"presence-tom": "living room"})
			if rec.last() != "stereo <- play with volume=5" {
				t.Fatalf("applied = %v, want tom's stereo rule", rec.applied)
			}

			// Emily gets home from shopping and joins Tom: her contextual
			// order applies and the stereo hands off to her.
			e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
				map[string]string{"presence-emily": "living room", "event": "emily|home-from-shopping|1"})
			if rec.last() != "stereo <- play with volume=2" {
				t.Fatalf("applied = %v, want hand-off to emily", rec.applied)
			}
			if owners := e.Owners(); owners["stereo"] != "emily-stereo" {
				t.Fatalf("owners = %v, want emily-stereo", owners)
			}

			// Both stay in the room. After the arrival TTL lapses the
			// contextual order stops applying and the stereo returns to Tom
			// (registration order breaks the tie) — no sensor changed at all.
			clock.advance(45 * time.Minute)
			e.Tick()
			if rec.last() != "stereo <- play with volume=5" {
				t.Fatalf("applied = %v, want hand-back to tom after TTL", rec.applied)
			}
			if rec.count() != 3 {
				t.Fatalf("applied = %v, want exactly 3 hand-offs", rec.applied)
			}
		})
	}
}

// TestEngineConcurrentStimuli interleaves HandleDeviceEvent, Tick,
// SetFavorites/SetUsers, rule churn and snapshot reads from many goroutines.
// Run under -race; the assertions only require the engine to stay coherent.
func TestEngineConcurrentStimuli(t *testing.T) {
	db := registry.New()
	tbl := conflict.NewTable()
	clock := &fakeClock{now: time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)}
	e := New(db, tbl, clock.Now, func(core.DeviceRef, core.Action) error { return nil },
		WithEventTTL(time.Hour), WithOnFire(func(Fired) {}))

	for i := 0; i < 50; i++ {
		rule := &core.Rule{
			ID:     fmt.Sprintf("r%d", i),
			Owner:  fmt.Sprintf("user%d", i%3),
			Device: core.DeviceRef{Name: fmt.Sprintf("dev%d", i%10)},
			Action: core.Action{Verb: "turn-on"},
			Cond: &core.Or{Terms: []core.Condition{
				&core.Compare{Var: "temperature", Op: simplex.GT, Value: float64(20 + i%15)},
				&core.Presence{Person: "tom", Place: "living room"},
			}},
		}
		if err := db.Add(rule); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Set(conflict.Order{Device: core.DeviceRef{Name: "dev0"}, Users: []string{"user0", "user1", "user2"}})

	const iters = 200
	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fn(i)
			}
		}()
	}

	run(func(i int) {
		e.HandleDeviceEvent(device.TypeThermometer, "thermometer", "living room",
			map[string]string{"temperature": fmt.Sprintf("%d", 10+i%30)})
	})
	run(func(i int) {
		place := "living room"
		if i%2 == 0 {
			place = ""
		}
		e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
			map[string]string{"presence-tom": place})
	})
	run(func(i int) {
		clock.advance(time.Second)
		e.Tick()
	})
	run(func(i int) {
		e.SetFavorites("emily", []string{"roman holiday"})
		if i%10 == 0 {
			e.SetUsers([]string{"tom", "alan", "emily"})
		}
	})
	run(func(i int) {
		_ = e.Log()
		_ = e.Owners()
		_ = e.Context()
	})
	run(func(i int) {
		id := fmt.Sprintf("churn%d", i)
		if err := db.Add(&core.Rule{
			ID: id, Owner: "tom", Device: core.DeviceRef{Name: "lamp"},
			Action: core.Action{Verb: "turn-on"},
			Cond:   &core.Compare{Var: "temperature", Op: simplex.GT, Value: 15},
		}); err != nil {
			t.Error(err)
			return
		}
		e.Tick()
		if err := db.Remove(id); err != nil {
			t.Error(err)
		}
	})
	wg.Wait()

	// The engine must still evaluate coherently after the storm.
	e.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
		map[string]string{"presence-tom": "living room"})
	if owners := e.Owners(); len(owners) == 0 {
		t.Error("no owners after tom present; engine wedged")
	}
}
