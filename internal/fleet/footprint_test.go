package fleet_test

import (
	"testing"

	"repro/internal/benchwork"
)

// maxEventHomeBytes bounds the live heap of a home created by one event and
// holding no rules. Such a home shares the default lexicon and grows its
// trace ring only as passes arrive, so what remains is its registry, engine
// and context.
const maxEventHomeBytes = 8 << 10

func TestBytesPerEventHome(t *testing.T) {
	const homes = 2000
	got, err := benchwork.EventHomeBytes(homes, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d event-created homes: %.0f bytes each", homes, got)
	if got > maxEventHomeBytes {
		t.Fatalf("an event-created home holds %.0f bytes, want <= %d", got, maxEventHomeBytes)
	}
}
