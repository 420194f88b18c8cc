package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// tierd is one running daemon: tierd under test, or refd.
type tierd struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	udpAddr string
	udpPort int
	log     *os.File
	exited  chan struct{}
	waitErr error
}

// startTierd execs bin with args on tierd's CPUs of place (every CPU
// with allCPUs), feeding stdinPath (if not empty) to its stdin, and
// returns once the daemon has printed its bound addresses. Its stderr
// goes to logPath. bin is tierd or refd, which print the same
// "NAME: serving http://H:P, ingesting udp H:P" line.
func startTierd(place *cpuPlacement, allCPUs bool, bin string, args []string, stdinPath, logPath string) (*tierd, error) {
	cmd := exec.Command(bin, args...)
	if stdinPath != "" {
		stdin, err := os.Open(stdinPath)
		if err != nil {
			return nil, err
		}
		defer stdin.Close()
		cmd.Stdin = stdin
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	// The daemon must not outlive the driver, however the driver ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := place.start(cmd.Start, allCPUs); err != nil {
		logf.Close()
		return nil, err
	}
	d := &tierd{cmd: cmd, log: logf, exited: make(chan struct{})}
	prefix := filepath.Base(bin) + ": serving http://"
	addrs := make(chan string, 1)
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if strings.HasPrefix(line, prefix) {
				select {
				case addrs <- line:
				default:
				}
			}
		}
		_, _ = io.Copy(logf, pipe)
	}()
	go func() {
		<-copied // Wait closes the pipe; let the reader drain it first
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case line := <-addrs:
		// "tierd: serving http://H:P, ingesting udp H:P, ingesting stdin"
		rest := strings.TrimPrefix(line, prefix)
		host, tail, _ := strings.Cut(rest, ",")
		d.base = "http://" + host
		if _, udp, ok := strings.Cut(tail, "ingesting udp "); ok {
			udp, _, _ = strings.Cut(udp, ",")
			d.udpAddr = strings.TrimSpace(udp)
			_, port, _ := strings.Cut(d.udpAddr, ":")
			d.udpPort, _ = strconv.Atoi(port)
		}
		return d, nil
	case <-d.exited:
		logf.Close()
		return nil, fmt.Errorf("%s exited during start-up (%v); log: %s", filepath.Base(bin), d.waitErr, tail(logPath))
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s printed no listen address within 60s; log: %s", filepath.Base(bin), tail(logPath))
	}
}

// stop asks the daemon to drain (SIGTERM), escalating to SIGKILL if it
// has not exited within grace, and waits for it to end.
func (d *tierd) stop(grace time.Duration) error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(grace):
		d.kill()
		d.log.Close()
		return fmt.Errorf("tierd did not drain within %v; killed", grace)
	}
	d.log.Close()
	return nil
}

func (d *tierd) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

func (d *tierd) pid() int { return d.cmd.Process.Pid }

// tail returns the last lines of a log file for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, " | ")
}

// scrape fetches /metrics and returns every sample by its name and labels.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// cpuSeconds reads a process's CPU time (all threads, user and system)
// from its process CPU clock, to the nanosecond: /proc/<pid>/stat counts
// in 10 ms ticks, too coarse for the half-second slices of measure.
func cpuSeconds(pid int) (float64, error) {
	// The kernel's clock id for a process's CPU clock:
	// MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED).
	id := (^uintptr(pid))<<3 | 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU clock of pid %d: %w", pid, errno)
	}
	return float64(ts.Nano()) / 1e9, nil
}

// peakRSSMiB reads VmHWM from /proc/<pid>/status.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// rxQueueBytes reads the receive-queue occupancy of the loopback UDP
// socket bound to port from /proc/net/udp: the driver's view of whether
// tierd's collector has drained what was sent, without asking tierd.
func rxQueueBytes(port int) (int, error) {
	b, err := os.ReadFile("/proc/net/udp")
	if err != nil {
		return 0, err
	}
	want := fmt.Sprintf(":%04X", port)
	for _, line := range strings.Split(string(b), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 5 || !strings.HasSuffix(f[1], want) {
			continue
		}
		_, rx, ok := strings.Cut(f[4], ":")
		if !ok {
			break
		}
		n, err := strconv.ParseInt(rx, 16, 64)
		return int(n), err
	}
	return 0, fmt.Errorf("no UDP socket on port %d in /proc/net/udp", port)
}
