package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// userHZ is the unit of the utime/stime fields of /proc/<pid>/stat. The
// kernel reports them in USER_HZ, which is 100 on every Linux ABI.
const userHZ = 100

// parseProcStatCPU extracts utime+stime from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself contain spaces and parentheses, so fields are counted from the
// last ')': utime and stime are fields 14 and 15 of the line, i.e. the
// 12th and 13th after it.
func parseProcStatCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := bytes.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	var ticks int64
	for _, b := range f[11:13] {
		v, err := strconv.ParseInt(string(b), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * (time.Second / userHZ), nil
}

// procCPU reads the CPU time (user+system) a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(b)
}

// procStatusKB reads one "Vm…: N kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if ok && name == key {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("proc status: no %s for pid %d", key, pid)
}

// environment is recorded with every result so a number can be traced to
// the box and commit that produced it.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Load1      float64 `json:"load_1min"`
}

func readEnvironment(repoRoot string) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = repoRoot
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			env.Load1, _ = strconv.ParseFloat(f[0], 64) // unparsable: leave 0
		}
	}
	return env
}
