package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running csserve process.
type server struct {
	cmd  *exec.Cmd
	base string
	args []string
	done chan struct{}
	err  error // set before done closes
}

// running tracks live children, and the run directory, so an interrupted
// benchmark stops them and removes it.
var running struct {
	sync.Mutex
	set map[*server]bool
	dir string
}

func init() {
	running.set = map[*server]bool{}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		running.Lock()
		for s := range running.set {
			s.cmd.Process.Kill()
			<-s.done
		}
		if running.dir != "" {
			os.RemoveAll(running.dir)
		}
		running.Unlock()
		os.Exit(1)
	}()
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches csserve on data and returns once /healthz answers
// 200, with the time that took.
func startServer(bin, data string, flags []string, logPath string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-data", data, "-addr", addr}, flags...)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(bin, "csserve"), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, args: args, done: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	running.Lock()
	running.set[s] = true
	running.Unlock()
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for {
		select {
		case <-s.done:
			s.forget()
			return nil, 0, fmt.Errorf("csserve exited before answering /healthz: %v (log: %s)", s.err, logPath)
		default:
		}
		if resp, err := hc.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 120*time.Second {
			s.stop()
			return nil, 0, errors.New("csserve did not become healthy within 120s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *server) forget() {
	running.Lock()
	delete(running.set, s)
	running.Unlock()
}

// stop sends SIGTERM (csserve drains and exits) and waits; a server still
// running after 30s is killed.
func (s *server) stop() error {
	defer s.forget()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
		return s.err
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return errors.New("csserve ignored SIGTERM for 30s and was killed")
	}
}

// cpuTicks returns the server's user+system CPU time in clock ticks.
func (s *server) cpuTicks() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) are at offsets 11 and 12.
	rest := string(data[strings.LastIndexByte(string(data), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", rest)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat: %q", rest)
	}
	return u + st, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTick = 10 * time.Millisecond

// peakRSSMB returns the server's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// runCsbuild builds the pinned corpus into out and returns the wall time.
func runCsbuild(bin, out, logPath string) (time.Duration, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return 0, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(bin, "csbuild"), "-out", out,
		"-docs", strconv.Itoa(corpusDocs), "-shards", strconv.Itoa(corpusShards),
		"-seed", strconv.Itoa(corpusSeed), "-format", strconv.Itoa(corpusFormat))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("csbuild: %w (log: %s)", err, logPath)
	}
	return time.Since(t0), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// copyDir copies the regular files of a cluster directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
