package main

import (
	"sort"
	"time"
)

// A measured phase is cut into windows and each end-to-end figure is the
// median over its windows, so a burst of interference from the shared host
// spoils one window instead of the run.

// window is one slice of a measured phase.
type window struct {
	ops     int           // operations completed in the window
	elapsed time.Duration // window length
	cpu     float64       // server CPU seconds spent in the window
	lat     []int64       // primary-operation latencies completed in it, ns
}

// windowPeriod is the length of a time-cut window.
const windowPeriod = time.Second

func medianOver(ws []window, f func(window) (float64, bool)) float64 {
	var xs []float64
	for _, w := range ws {
		if v, ok := f(w); ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// opsPerSec is the median window throughput.
func opsPerSec(ws []window) float64 {
	return medianOver(ws, func(w window) (float64, bool) {
		return float64(w.ops) / w.elapsed.Seconds(), w.elapsed > 0
	})
}

// latencyP50 is the median of the windows' p50 latencies, in ns.
func latencyP50(ws []window) float64 {
	return medianOver(ws, func(w window) (float64, bool) {
		return float64(quantile(w.lat, 0.5)), len(w.lat) > 0
	})
}

// cpuPerOp is the server CPU seconds per operation over all the windows.
// It is a total, not a median of windows: the CPU clock counts 10 ms ticks,
// and a one-second window of a light workload holds so few that each
// window's figure moves in steps of several percent.
func cpuPerOp(ws []window) float64 {
	var cpu float64
	var ops int
	for _, w := range ws {
		cpu += w.cpu
		ops += w.ops
	}
	return ratio(cpu, float64(ops))
}

// cpuMark is the server's cumulative CPU time at one instant.
type cpuMark struct {
	at  time.Time
	cpu float64
}

// cpuClock samples the server's CPU time every windowPeriod, so a phase can
// be cut into windows whose CPU cost is known.
type cpuClock struct {
	marks []cpuMark
	err   error
	stop  chan struct{}
	done  chan struct{}
}

func startCPUClock(s *server) *cpuClock {
	c := &cpuClock{stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() bool {
		cpu, err := s.cpuSeconds()
		if err != nil {
			c.err = err
			return false
		}
		c.marks = append(c.marks, cpuMark{time.Now(), cpu})
		return true
	}
	sample()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(windowPeriod)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if !sample() {
					return
				}
			case <-c.stop:
				sample()
				return
			}
		}
	}()
	return c
}

// finish stops the clock and returns its marks.
func (c *cpuClock) finish() ([]cpuMark, error) {
	close(c.stop)
	<-c.done
	return c.marks, c.err
}

// timed is one completed primary operation.
type timed struct {
	at  time.Time // completion
	lat int64     // ns
}

// cutWindows cuts a time-driven phase at the CPU clock's marks: each window
// counts the operations completed inside it (ops holds every completion
// time) and gathers the primary latencies completed inside it. The last,
// partial window is dropped when it is shorter than half a period.
func cutWindows(marks []cpuMark, ops []time.Time, prim []timed) []window {
	if len(marks) < 2 {
		return nil
	}
	ws := make([]window, len(marks)-1)
	for i := range ws {
		ws[i].elapsed = marks[i+1].at.Sub(marks[i].at)
		ws[i].cpu = marks[i+1].cpu - marks[i].cpu
	}
	find := func(t time.Time) int {
		// The window whose half-open interval [mark i, mark i+1) holds t.
		i := sort.Search(len(marks), func(i int) bool { return marks[i].at.After(t) }) - 1
		if i < 0 || i >= len(ws) {
			return -1
		}
		return i
	}
	for _, t := range ops {
		if i := find(t); i >= 0 {
			ws[i].ops++
		}
	}
	for _, p := range prim {
		if i := find(p.at); i >= 0 {
			ws[i].lat = append(ws[i].lat, p.lat)
		}
	}
	if last := ws[len(ws)-1]; len(ws) > 1 && last.elapsed < windowPeriod/2 {
		ws = ws[:len(ws)-1]
	}
	return ws
}
