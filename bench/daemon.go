package main

import (
	"bytes"
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
	"strconv"
	"strings"
	"time"
)

// buildDir holds everything the benchmark builds; .gitignore names it.
const buildDir = "bench/out"

// buildDaemon compiles cmd/smartssdd from the checkout's own source and
// reports the binary's path. The go command's cache makes every build
// after the first a no-op.
func buildDaemon(ctx context.Context) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "smartssdd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/smartssdd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/smartssdd: %w\n%s", err, out)
	}
	return bin, nil
}

// freeLoopbackAddr reserves a loopback port by binding it and letting
// go; the daemon takes its address as a flag and cannot report one it
// picked itself.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// daemon is one spawned smartssdd.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	// setup is spawn → first 200 from GET /metrics: data generation,
	// engine and cluster load, worker clones, listener up.
	setup time.Duration
	// readyRSSMB is the resident set when the daemon first answered.
	readyRSSMB float64
}

// readyTimeout bounds how long a spawned process may take to answer.
const readyTimeout = 60 * time.Second

// spawnDaemon starts bin with clients workers on a fresh loopback port
// and waits until it serves /metrics.
func spawnDaemon(bin string, clients int) (*daemon, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{url: "http://" + addr}
	d.cmd = exec.Command(bin,
		"-addr", addr,
		"-sf", strconv.FormatFloat(daemonSF, 'g', -1, 64),
		"-seed", strconv.Itoa(daemonDataSeed),
		"-workers", strconv.Itoa(clients),
		"-queue", strconv.Itoa(2*clients),
		"-devices", strconv.Itoa(daemonDevices),
		"-replication", strconv.Itoa(daemonReplication))
	d.cmd.Stderr = &d.stderr
	dieWithParent(d.cmd)
	start := now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get(d.url + "/metrics")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if now().Sub(start) > readyTimeout {
			d.stop()
			return nil, fmt.Errorf("smartssdd not ready after %v: %s", readyTimeout, d.stderr.String())
		}
		pause(5 * time.Millisecond)
	}
	d.setup = now().Sub(start)
	client.CloseIdleConnections()
	d.readyRSSMB, _ = procStatusMB(d.cmd.Process.Pid, "VmRSS")
	return d, nil
}

// stop kills the daemon and waits until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait() // the kill is the expected exit status
}

// sessionStats mirrors the "sessions" object of GET /metrics.
type sessionStats struct {
	Opened    int64 `json:"opened"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Rejected  int64 `json:"rejected"`
	Closed    int64 `json:"closed"`
	Evicted   int64 `json:"evicted"`
}

// fetchSessionStats reads the session counters of the server at url.
func fetchSessionStats(url string) (sessionStats, error) {
	var body struct {
		Sessions sessionStats `json:"sessions"`
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return body.Sessions, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return body.Sessions, fmt.Errorf("GET /metrics = %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	return body.Sessions, err
}

// reconcile checks the end-of-run invariant: every session the
// benchmark opened was completed and closed, and nothing was refused,
// failed or evicted.
func (s sessionStats) reconcile(sent int64) error {
	if s.Opened != sent || s.Completed != sent || s.Closed != sent ||
		s.Rejected != 0 || s.Failed != 0 || s.Evicted != 0 {
		return fmt.Errorf("/metrics does not reconcile with %d sessions sent: %+v", sent, s)
	}
	return nil
}

// procStatusMB reads one kB-valued field (VmRSS, VmHWM) of
// /proc/<pid>/status in MB.
func procStatusMB(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no " + field + " in /proc status")
}

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux the Go toolchain targets.
const clockTicksPerSecond = 100

// procCPU reports the user+system CPU time a process has consumed.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return time.Duration(utime+stime) * time.Second / clockTicksPerSecond, nil
}
