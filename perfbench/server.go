package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// server is one child server process under test, on fresh ports and a fresh
// store directory.
type server struct {
	cmd   *exec.Cmd
	args  []string
	api   string // fleet JSON API (net/http behind the ring node)
	raw   string // raw-socket event ingest
	admin string // net/http/pprof
	log   string
	http  *http.Client
	done  chan struct{} // closed once the process has been reaped
	err   error         // Wait's result, valid after done
}

// freePorts reserves n loopback ports by binding :0 and releasing them. Each
// server gets ports no earlier server used, so a child still in TIME_WAIT
// teardown cannot collide with the next one.
func freePorts(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			_ = l.Close()
		}
	}()
	var out []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		ls = append(ls, l)
		out = append(out, l.Addr().String())
	}
	return out, nil
}

// startServer launches bin (prefix args, then the fleet flags) and waits
// until it answers /readyz and accepts on the raw port. A server that fails
// to start is an error for the whole run; it is never retried.
func startServer(ctx context.Context, bin string, prefix []string, procs int, workDir string, seq int) (*server, error) {
	ports, err := freePorts(3)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(workDir, fmt.Sprintf("server-%d", seq))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "store"), 0o755); err != nil {
		return nil, err
	}
	s := &server{
		api: ports[0], raw: ports[1], admin: ports[2],
		log:  filepath.Join(dir, "server.log"),
		done: make(chan struct{}),
	}
	s.args = append(append([]string(nil), prefix...),
		"-fleet", s.api, "-raw-ingest", s.raw, "-admin", s.admin, "-store", filepath.Join(dir, "store"))
	logf, err := os.Create(s.log)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	s.cmd = exec.Command(bin, s.args...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// The child dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	s.http = &http.Client{
		Timeout: ioTimeout,
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
	if err := s.waitReady(ctx); err != nil {
		_ = s.stop()
		return nil, fmt.Errorf("server %s did not start: %w\n%s", bin, err, s.logTail())
	}
	return s, nil
}

// serverProcs is the GOMAXPROCS given to the server on a workload: at most
// two. home_actuation's server gets one. Its load is light, and a second P
// there mostly spins and hands sync posts between threads, so its latency
// and CPU per event followed the host's wake-up delays instead of the
// engine.
func serverProcs(workload string) int {
	if workload == "home_actuation" {
		return 1
	}
	return min(2, maxProcs())
}

func (s *server) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-s.done:
			return fmt.Errorf("exited: %v", s.err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if st, _, err := s.do(http.MethodGet, "/readyz", nil); err == nil && st == http.StatusOK {
			if c, err := net.DialTimeout("tcp", s.raw, time.Second); err == nil {
				return c.Close()
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop sends SIGTERM (the server drains and exits 0), escalates to SIGKILL
// after ten seconds, and returns only once the process has been reaped.
func (s *server) stop() error {
	s.http.CloseIdleConnections()
	select {
	case <-s.done:
	default:
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
			return fmt.Errorf("server did not stop on SIGTERM")
		}
	}
	if s.err != nil {
		return fmt.Errorf("server exit: %v\n%s", s.err, s.logTail())
	}
	return nil
}

func (s *server) logTail() string {
	b, err := os.ReadFile(s.log)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// do sends one request to the API port and returns the status and body.
func (s *server) do(method, path string, body []byte) (int, []byte, error) {
	return s.doAt(s.api, method, path, body)
}

func (s *server) doAt(addr, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://"+addr+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// getJSON decodes a 200 response from the API port into v.
func (s *server) getJSON(path string, v any) error {
	st, body, err := s.do(http.MethodGet, path, nil)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if st != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, st, body)
	}
	return json.Unmarshal(body, v)
}

// hubStats is the part of GET /fleet/stats the benchmark reads.
type hubStats struct {
	Homes  int    `json:"homes"`
	Events uint64 `json:"events"`
	Passes uint64 `json:"passes"`
	Queued int    `json:"queued"`
}

func (s *server) stats() (hubStats, error) {
	var st hubStats
	err := s.getJSON("/fleet/stats", &st)
	return st, err
}

// waitDrained polls /fleet/stats until the hub has accepted events events
// and its mailboxes are empty.
func (s *server) waitDrained(ctx context.Context, events uint64) (hubStats, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := s.stats()
		if err != nil {
			return st, err
		}
		if st.Events >= events && st.Queued == 0 {
			return st, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return st, fmt.Errorf("hub not drained: %d/%d events, %d queued", st.Events, events, st.Queued)
		}
		time.Sleep(time.Millisecond)
	}
}

// cpuSeconds returns the server's utime+stime so far.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseProcStat(b)
	return float64(ticks) / clockTicks, err
}

// heapBytes forces a GC in the server and returns its live heap.
func (s *server) heapBytes() (uint64, error) {
	st, body, err := s.doAt(s.admin, http.MethodGet, "/debug/pprof/heap?debug=1&gc=1", nil)
	if err != nil {
		return 0, err
	}
	if st != http.StatusOK {
		return 0, fmt.Errorf("heap profile: status %d", st)
	}
	return parseHeapAlloc(body)
}

// metrics scrapes GET /metrics.
func (s *server) metrics() (scrape, error) {
	st, body, err := s.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", st)
	}
	return parseScrape(body)
}
