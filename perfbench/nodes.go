package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on every mainstream Linux build).
const clockTicks = 100

// node is one serving process the benchmark started.
type node struct {
	name    string
	cmd     *exec.Cmd
	base    string // "http://127.0.0.1:port"
	logPath string
	started time.Time
	done    chan struct{}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startNode launches bin with args, logging to dir/<name>.log.
func startNode(name, bin string, args, env []string, dir string, port int) (*node, error) {
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), env...)
	cmd.Dir = dir
	// A node never outlives the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	n := &node{name: name, cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), logPath: logPath, done: make(chan struct{})}
	n.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %v", name, err)
	}
	go func() {
		_ = cmd.Wait()
		logf.Close()
		close(n.done)
	}()
	return n, nil
}

func (n *node) exited() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// kill stops the node at once and waits for it to exit.
func (n *node) kill() {
	if n == nil {
		return
	}
	_ = n.cmd.Process.Kill()
	<-n.done
}

// term asks the node to shut down cleanly (its exit path writes the
// state file and, for a traced node, the span file), killing it after
// timeout.
func (n *node) term(timeout time.Duration) {
	if n == nil {
		return
	}
	_ = n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-n.done:
	case <-time.After(timeout):
		n.kill()
	}
}

// cpuSeconds is the process's utime+stime from /proc.
func (n *node) cpuSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	return statCPU(data)
}

// statCPU parses utime+stime (fields 14 and 15) out of a /proc stat line;
// the command name in field 2 may hold spaces, so fields count from the
// closing parenthesis.
func statCPU(data []byte) float64 {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0
	}
	u, _ := strconv.ParseFloat(f[11], 64)
	s, _ := strconv.ParseFloat(f[12], 64)
	return (u + s) / clockTicks
}

// peakRSSMiB is VmHWM from /proc/<pid>/status.
func (n *node) peakRSSMiB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// metrics scrapes the node's /metrics and returns every unlabelled sample.
func (n *node) metrics(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(n.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: %s", n.name, resp.Status)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		out[f[0]] = v
	}
	return out, sc.Err()
}

// waitFor polls cond every millisecond until it holds, the node dies, or
// timeout. The fine poll keeps set-up times of a few tens of
// milliseconds from being quantised by the poll.
func waitFor(n *node, timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return nil
		}
		if n.exited() {
			return fmt.Errorf("%s exited while waiting for %s (see %s)", n.name, what, n.logPath)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: timed out after %s waiting for %s", n.name, timeout, what)
		}
		time.Sleep(time.Millisecond)
	}
}

func healthy(c *http.Client, n *node) bool {
	resp, err := c.Get(n.base + "/healthz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// caughtUp reports a follower connected, past its first catch-up
// snapshot, and at lag 0.
func caughtUp(c *http.Client, f *node) bool {
	m, err := f.metrics(c)
	if err != nil {
		return false
	}
	return m["qbets_repl_connected"] == 1 && m["qbets_repl_snapshots_installed_total"] >= 1 && m["qbets_repl_lag"] == 0
}

// quiesced reports the follower at lag 0 with every record the leader
// logged applied: sequence numbers run contiguously from the prepared
// WAL tail (tail records) through every append since the leader started.
func quiesced(c *http.Client, l, f *node, tail int) bool {
	lm, err := l.metrics(c)
	if err != nil {
		return false
	}
	fm, err := f.metrics(c)
	if err != nil {
		return false
	}
	return fm["qbets_repl_lag"] == 0 && fm["qbets_repl_applied_seq"] >= float64(tail)+lm["qbets_wal_appends_total"]
}
