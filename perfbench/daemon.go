package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// daemon is one cpackd process started by the benchmark, listening on a
// loopback port with its own fresh -cache-dir.
type daemon struct {
	name string
	cmd  *exec.Cmd
	url  string
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// freePort reserves a loopback port by binding and releasing it.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin on port with default flags otherwise, logging
// to <dir>/<name>.log, and returns once /healthz answers.
func startDaemon(ctx context.Context, bin, dir, name string, port int, cacheDir string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-cache-dir", cacheDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Never outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	if err := d.waitReady(ctx, 15*time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitReady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during start-up: %v", d.name, d.err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := c.Get(d.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %s", d.name, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM (flushing its cache store) and
// waits for it to exit, escalating to SIGKILL after 20 s.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return nil
	default:
	}
	// An error means the process already exited; done reports that.
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		var ee *exec.ExitError
		if errors.As(d.err, &ee) {
			return fmt.Errorf("%s exited with %v", d.name, d.err)
		}
		return nil
	case <-time.After(20 * time.Second):
		d.kill()
		return fmt.Errorf("%s did not drain within 20s", d.name)
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if it already exited
	<-d.done
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime returns the process's user+sys CPU time from /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// counted from the closing parenthesis. utime and stime are fields
	// 14 and 15, so the 12th and 13th after the state field.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", d.name)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS returns VmHWM, the process's peak resident set, in bytes.
func (d *daemon) peakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", d.name)
}

// vars is the part of cpackd's /debug/vars the benchmark reads.
type vars struct {
	MemStats struct {
		TotalAlloc    uint64  `json:"TotalAlloc"`
		HeapAlloc     uint64  `json:"HeapAlloc"`
		GCCPUFraction float64 `json:"GCCPUFraction"`
	} `json:"memstats"`
	Cpackd struct {
		Uptime float64 `json:"uptime_seconds"`
		Cache  struct {
			Hits      uint64 `json:"hits"`
			Misses    uint64 `json:"misses"`
			Evictions uint64 `json:"evictions"`
			Bytes     int64  `json:"bytes"`
		} `json:"cache"`
		Store struct {
			RestoredEntries uint64 `json:"restored_entries"`
			Appends         uint64 `json:"appends"`
			AppendErrors    uint64 `json:"append_errors"`
			Compactions     uint64 `json:"compactions"`
		} `json:"cache_store"`
		Stages map[string]stageTotal `json:"stages"`
	} `json:"cpackd"`
	// HeapLive is cpackd_go_heap_live_bytes from /metrics (0 before the
	// first GC cycle).
	HeapLive float64 `json:"-"`
}

type stageTotal struct {
	Sum float64 `json:"sum_seconds"`
	N   uint64  `json:"count"`
}

func (d *daemon) scrape(ctx context.Context) (*vars, error) {
	var v vars
	if err := getJSON(ctx, d.url+"/debug/vars", &v); err != nil {
		return nil, fmt.Errorf("%s /debug/vars: %w", d.name, err)
	}
	live, err := d.metric(ctx, "cpackd_go_heap_live_bytes")
	if err != nil {
		return nil, err
	}
	v.HeapLive = live
	return &v, nil
}

// metric reads one unlabelled sample from /metrics.
func (d *daemon) metric(ctx context.Context, name string) (float64, error) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("%s /metrics has no %s", d.name, name)
}

func getJSON(ctx context.Context, url string, v any) error {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
