package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// daemon is one running ssrd child. Both listeners bind port 0; the bound
// addresses are parsed from the daemon's own "listening on" lines.
type daemon struct {
	cmd    *exec.Cmd
	api    string // http://host:port of the v1 API
	debug  string // http://host:port of the -pprof side listener
	client *http.Client
	exited chan error
	stderr bytes.Buffer
}

// ssrdArgs are the flags both HTTP workloads start the daemon with. Dilation
// 5000 puts the simulated cluster near 20 % utilisation at today's closed-
// loop rate, four times short of becoming the bottleneck.
func ssrdArgs(sz sizes) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-pprof", "127.0.0.1:0",
		"-nodes", fmt.Sprint(sz.svcNodes),
		"-slots", fmt.Sprint(sz.svcSlots),
		"-mode", "ssr",
		"-dilation", "5000",
		"-baseline-workers", "-1",
	}
}

func startDaemon(cfg *runConfig) (*daemon, error) {
	d := &daemon{
		cmd:    exec.Command(cfg.SSRD, ssrdArgs(cfg.sizes())...),
		exited: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        4 * cfg.Procs,
			MaxIdleConnsPerHost: 4 * cfg.Procs,
			DisableCompression:  true,
		}},
	}
	d.cmd.Dir = cfg.Root
	d.cmd.Stderr = &d.stderr
	// The daemon must not outlive the benchmark, whatever kills it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ssrd: %w", err)
	}
	type addrs struct{ api, debug string }
	found := make(chan addrs, 1)
	go func() {
		var a addrs
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "ssrd: pprof/expvar on "); ok {
				a.debug = strings.TrimSuffix(rest, "/debug/pprof/")
			}
			if rest, ok := strings.CutPrefix(line, "ssrd: listening on "); ok {
				a.api = "http://" + strings.Fields(rest)[0]
				found <- a
			}
		}
		// Scanner stopped: the pipe closed, so Wait can reap the child.
		d.exited <- d.cmd.Wait()
	}()
	select {
	case a := <-found:
		d.api, d.debug = a.api, a.debug
	case err := <-d.exited:
		return nil, fmt.Errorf("ssrd exited before listening: %v\n%s", err, d.stderr.String())
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, errors.New("ssrd did not report its address within 20 s")
	}
	if d.debug == "" {
		d.kill()
		return nil, errors.New("ssrd did not report its -pprof address")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := d.get(d.api + "/v1/healthz"); err == nil {
			return d, nil
		} else if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("ssrd health wait: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// exitedWithin waits up to limit for the daemon to exit and returns its exit
// error; exited is false when it is still running. The result stays readable, so
// every later call sees the same exit.
func (d *daemon) exitedWithin(limit time.Duration) (exited bool, err error) {
	select {
	case err := <-d.exited:
		d.exited <- err
		return true, err
	case <-time.After(limit):
		return false, nil
	}
}

// kill stops the daemon at once and reaps it. Safe on an exited daemon.
func (d *daemon) kill() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Kill() // already exited: nothing to kill
	d.exitedWithin(10 * time.Second)
	d.client.CloseIdleConnections()
}

// terminate sends SIGTERM and waits for the graceful drain; a clean daemon
// exits 0.
func (d *daemon) terminate() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	exited, err := d.exitedWithin(30 * time.Second)
	if !exited {
		d.kill()
		return errors.New("ssrd did not exit within 30 s of SIGTERM")
	}
	if err != nil {
		return fmt.Errorf("ssrd after SIGTERM: %w\n%s", err, d.stderr.String())
	}
	return nil
}

// postMortem says whether the daemon has died and what it left on standard
// error, for the detail of a failed request.
func (d *daemon) postMortem() string {
	state := "is still running"
	if exited, err := d.exitedWithin(0); exited {
		state = fmt.Sprintf("has exited (%v)", err)
	}
	return fmt.Sprintf("; ssrd %s, stderr:\n%s", state, d.stderr.String())
}

// get fetches a URL and returns the body of a 2xx response.
func (d *daemon) get(url string) ([]byte, error) {
	resp, err := d.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// daemonStats is one reading of the daemon from outside: expvar memstats
// after a forced collection, CPU and peak RSS from /proc.
type daemonStats struct {
	alloc        allocCounters
	heapAlloc    uint64
	pauseTotalNs uint64
	cpu          time.Duration
	peakRSSMB    float64
}

// stats forces a collection through the heap profile endpoint (gc=1), then
// reads /debug/vars and /proc/<pid>.
func (d *daemon) stats() (daemonStats, error) {
	var s daemonStats
	if _, err := d.get(d.debug + "/debug/pprof/heap?gc=1"); err != nil {
		return s, err
	}
	body, err := d.get(d.debug + "/debug/vars")
	if err != nil {
		return s, err
	}
	var vars struct {
		Memstats struct {
			Mallocs      uint64
			TotalAlloc   uint64
			HeapAlloc    uint64
			PauseTotalNs uint64
		} `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return s, fmt.Errorf("/debug/vars: %w", err)
	}
	s.alloc = allocCounters{vars.Memstats.Mallocs, vars.Memstats.TotalAlloc}
	s.heapAlloc = vars.Memstats.HeapAlloc
	s.pauseTotalNs = vars.Memstats.PauseTotalNs
	pid := d.cmd.Process.Pid
	if s.cpu, err = procCPU(pid); err != nil {
		return s, err
	}
	s.peakRSSMB, err = peakRSSMB(pid)
	return s, err
}

// daemonMetrics is the part of GET /v1/metrics the checks read.
type daemonMetrics struct {
	JobsCompleted      int `json:"jobsCompleted"`
	JobsFailed         int `json:"jobsFailed"`
	DroppedSubscribers int `json:"droppedSubscribers"`
	EventsPublished    int `json:"eventsPublished"`
}

func (d *daemon) metrics() (daemonMetrics, error) {
	var m daemonMetrics
	body, err := d.get(d.api + "/v1/metrics")
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(body, &m)
}

// awaitCompleted waits until the daemon has completed every accepted job.
// A backlog that does not drain within the limit makes any throughput figure
// meaningless, so the run is invalid.
func (d *daemon) awaitCompleted(accepted int, limit time.Duration) (daemonMetrics, error) {
	deadline := time.Now().Add(limit)
	for {
		m, err := d.metrics()
		if err != nil {
			return m, err
		}
		if m.JobsCompleted+m.JobsFailed >= accepted {
			return m, nil
		}
		if time.Now().After(deadline) {
			return m, fmt.Errorf("growing backlog: %d of %d accepted jobs completed %v after the load stopped", m.JobsCompleted, accepted, limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
