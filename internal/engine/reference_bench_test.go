package engine_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/benchwork"
	"repro/internal/conflict"
	"repro/internal/device"
	"repro/internal/engine"
)

// BenchmarkReferenceEvaluate times the naive reference evaluator on the
// engine_evaluate shape (benchwork.RoomTempDB, Example Rule 1): one
// single-key sensor event per op, each followed by a full scan that
// re-evaluates all n rules unbound over the string-keyed context and
// re-arbitrates every device with a ready rule. It is the baseline the
// engine's incremental, interned pass is measured against: compare with
// BenchmarkEngineEvaluate in the root package and the engine_evaluate rows
// of BENCH_core.json.
func BenchmarkReferenceEvaluate(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("fullscan-%d", n), func(b *testing.B) {
			db, err := benchwork.RoomTempDB(n)
			if err != nil {
				b.Fatal(err)
			}
			ref := engine.NewReference(db, conflict.NewTable(), func() time.Time { return benchwork.Epoch }, nil, 0)
			// Steady state as benchwork.SeedRoomTemp builds it for the
			// engine: Tom in the living room, every room's key populated
			// once (one pass), the event stream replayed once.
			ref.HandleDeviceEvent(device.TypePresenceSensor, "presence sensor", "home",
				map[string]string{"presence-tom": "living room"})
			low := map[string]string{"temperature": "10"}
			for i := 1; i < n; i++ {
				ref.Ingest(device.TypeThermometer, "thermometer", fmt.Sprintf("room%d", i), low)
			}
			ref.Tick()
			events := benchwork.TempEvents()
			for _, ev := range events {
				ref.HandleDeviceEvent(device.TypeThermometer, "thermometer", "room0", ev)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref.HandleDeviceEvent(device.TypeThermometer, "thermometer", "room0", events[i%len(events)])
			}
		})
	}
}
