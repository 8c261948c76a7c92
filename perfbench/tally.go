package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// tally counts every operation a run attempts and every one that failed: an
// unexpected status, a transport error or timeout, or an output-check
// mismatch. The first few failures are described on standard error.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	shown     int
}

func (t *tally) ok() { t.attempted.Add(1) }

func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.shown < 10 {
		t.shown++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
	}
}

// record counts one operation: failed when err is non-nil.
func (t *tally) record(what string, err error) bool {
	if err != nil {
		t.fail("%s: %v", what, err)
		return false
	}
	t.ok()
	return true
}

// expect records one operation whose status must be want.
func (t *tally) expect(what string, got, want int, err error) bool {
	return t.record(what, statusErr(got, want, err))
}

func statusErr(got, want int, err error) error {
	if err == nil && got != want {
		err = fmt.Errorf("status %d, want %d", got, want)
	}
	return err
}
