package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// daemon is one cos-serve process started by the benchmark on a loopback
// port. stop terminates it and waits for it to exit.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan error // receives cmd.Wait's result once
}

// startDaemon launches serveBin with args plus a loopback listen address,
// copies its stderr journal to dir/stderr.log (dir is created), and waits
// until /healthz answers 200.
func startDaemon(ctx context.Context, serveBin, dir string, args ...string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "stderr.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(serveBin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The daemon must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", serveBin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		copyJournal(logf, stderr, addr)
		logf.Close()
		d.done <- cmd.Wait() // after the last read from the pipe
	}()

	select {
	case a := <-addr:
		d.url = "http://" + a
	case err := <-d.done:
		d.done <- err
		return nil, fmt.Errorf("cos-serve exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("cos-serve did not report its listen address within 30s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	// The address is reported once the socket listens, so health normally
	// answers at once; a draining (503) or unreachable daemon is retried
	// briefly.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok, err := healthy(ctx, d.url)
		if ok {
			return d, nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("cos-serve health: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// copyJournal copies the daemon's stderr journal to w until EOF, sending
// the address of its server_listening event on addr.
func copyJournal(w io.Writer, r io.Reader, addr chan<- string) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sent := false
	for sc.Scan() {
		line := sc.Bytes()
		_, _ = w.Write(append(line, '\n')) // a log for debugging; losing it changes no result
		if sent {
			continue
		}
		var ev struct {
			Type string `json:"type"`
			Data struct {
				Addr string `json:"addr"`
			} `json:"data"`
		}
		if json.Unmarshal(line, &ev) == nil && ev.Type == "server_listening" {
			addr <- ev.Data.Addr
			sent = true
		}
	}
	_, _ = io.Copy(w, r) // the scanner stops on an oversize line; keep draining
}

// healthy reports whether GET /healthz answers 200.
func healthy(ctx context.Context, url string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false, err
	}
	resp, err := plainHTTP.Do(req)
	if err != nil {
		return false, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("healthz: %s", resp.Status)
	}
	return true, nil
}

// plainHTTP carries the benchmark's own requests (health, job lists),
// which stay out of the load generator's metered connections.
var plainHTTP = &http.Client{Transport: &http.Transport{}}

// peakRSSMB is the daemon's peak resident set so far.
func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// stop sends SIGTERM (a graceful drain), escalates to SIGKILL after 10s,
// and waits for the process to exit.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		return <-d.done
	}
}

// stopAll stops every daemon, returning the first error.
func stopAll(ds []*daemon) error {
	var first error
	for _, d := range ds {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// connMeter counts the TCP connections the load generator opens and the
// most it held open at once; the benchmark asserts the latter stays
// within maxConns.
type connMeter struct {
	mu         sync.Mutex
	open, peak int
}

// maxConns is the load generator's connection budget.
const maxConns = 2

// transport returns an HTTP transport that holds at most one connection
// and reports it to the meter.
func (m *connMeter) transport() *http.Transport {
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	return &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			m.mu.Lock()
			m.open++
			m.peak = max(m.peak, m.open)
			m.mu.Unlock()
			return &meteredConn{Conn: c, m: m}, nil
		},
	}
}

func (m *connMeter) peakOpen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

type meteredConn struct {
	net.Conn
	m    *connMeter
	once sync.Once
}

func (c *meteredConn) Close() error {
	c.once.Do(func() {
		c.m.mu.Lock()
		c.m.open--
		c.m.mu.Unlock()
	})
	return c.Conn.Close()
}
