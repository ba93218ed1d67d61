package main

import (
	"bufio"
	"bytes"
	"context"
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

// child is a subprocess the bench started: a re-exec'd phase of its own, or
// the pdtl-worker / pdtl-serve a phase drives. A phase leads its own process
// group and the programs it starts stay in that group, so killing a phase's
// group takes everything under it; Pdeathsig covers a bench that is killed
// outright. Stdout is discarded; stderr is kept for error reports.
type child struct {
	cmd    *exec.Cmd
	group  bool // leads its own process group
	stderr bytes.Buffer
	done   chan struct{} // closed once the process has been waited for
	err    error         // Wait's result, valid after done
}

// startChild starts bin with args and GOMAXPROCS pinned to procs; group
// makes it the leader of a new process group.
func startChild(procs int, group bool, bin string, args ...string) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...), group: group, done: make(chan struct{})}
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	c.cmd.Stderr = &c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: group, Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop kills the child (its whole group when it leads one) and waits until
// it has ended.
func (c *child) stop() {
	pid := c.cmd.Process.Pid
	if c.group {
		pid = -pid
	}
	_ = syscall.Kill(pid, syscall.SIGKILL) // already gone is fine
	<-c.done
}

// wait blocks until the child exits on its own or ctx ends (then it is
// killed), and returns its exit error with its stderr attached.
func (c *child) wait(ctx context.Context) error {
	select {
	case <-c.done:
	case <-ctx.Done():
		c.stop()
		return ctx.Err()
	}
	if c.err != nil {
		return fmt.Errorf("%s: %w: %s", filepath.Base(c.cmd.Path), c.err, strings.TrimSpace(c.stderr.String()))
	}
	return nil
}

// freeLoopbackAddr reserves a free TCP port on 127.0.0.1 by binding and
// releasing it. The window before the child rebinds it is tiny and a lost
// race only fails the health wait, which reports it.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitTCP blocks until addr accepts a connection, the child exits, or ctx
// ends.
func waitTCP(ctx context.Context, c *child, addr string) error {
	return waitReady(ctx, c, addr, func() bool {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			return false
		}
		conn.Close()
		return true
	})
}

// waitHealthz blocks until GET http://addr/healthz answers 200.
func waitHealthz(ctx context.Context, c *child, addr string) error {
	client := &http.Client{Timeout: 500 * time.Millisecond}
	return waitReady(ctx, c, addr, func() bool {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

func waitReady(ctx context.Context, c *child, addr string, ready func() bool) error {
	deadline := time.Now().Add(15 * time.Second)
	for !ready() {
		select {
		case <-c.done:
			return fmt.Errorf("child for %s exited early: %s", addr, strings.TrimSpace(c.stderr.String()))
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 15s: %s", addr, strings.TrimSpace(c.stderr.String()))
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// clockTick is the kernel's USER_HZ; it is 100 on every Linux port Go runs
// on.
const clockTick = 100

// cpuSeconds is user+system CPU consumed so far by this process (rusage,
// microsecond resolution) plus each listed child (/proc/<pid>/stat, 10 ms
// ticks). A child that has already exited contributes nothing.
func cpuSeconds(pids []int) float64 {
	var ru syscall.Rusage
	total := 0.0
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		total = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	for _, pid := range pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			continue
		}
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th of the whole line.
		rest := data[bytes.LastIndexByte(data, ')')+1:]
		f := strings.Fields(string(rest))
		if len(f) < 13 {
			continue
		}
		ut, _ := strconv.ParseFloat(f[11], 64)
		st, _ := strconv.ParseFloat(f[12], 64)
		total += (ut + st) / clockTick
	}
	return total
}

// resetPeakRSS restarts the kernel's peak-RSS accounting (VmHWM) of this
// process and the listed children, so that the next peakRSSMB reads the
// peak of one operation rather than of the processes' whole lives. Where the
// kernel refuses the write the old peak simply stands: the reading is still
// a true peak, only a noisier one.
func resetPeakRSS(pids []int) {
	for _, path := range append([]string{"/proc/self/clear_refs"}, procPaths(pids, "clear_refs")...) {
		_ = os.WriteFile(path, []byte("5"), 0) // see above: best effort
	}
}

// peakRSSMB is the largest VmHWM (peak resident set) among this process and
// the listed children, in MB.
func peakRSSMB(pids []int) float64 {
	max := 0.0
	for _, path := range append([]string{"/proc/self/status"}, procPaths(pids, "status")...) {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if kb, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				v, _ := strconv.ParseFloat(strings.Fields(kb)[0], 64)
				if mb := v / 1024; mb > max {
					max = mb
				}
			}
		}
		f.Close()
	}
	return max
}

func procPaths(pids []int, file string) []string {
	out := make([]string, len(pids))
	for i, pid := range pids {
		out[i] = fmt.Sprintf("/proc/%d/%s", pid, file)
	}
	return out
}

// fileMB sums the sizes of the named files in MB; missing files count 0.
func fileMB(paths ...string) float64 {
	var n int64
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return float64(n) / 1e6
}
