package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// procCPUms returns the CPU time the process's threads have used, in
// milliseconds, summed from /proc/<pid>/task/*/schedstat (Linux only),
// which counts in nanoseconds where /proc/<pid>/stat counts in 10 ms
// ticks.
func procCPUms(pid int) (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		buf, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited since the listing
		}
		fields := strings.Fields(string(buf))
		if len(fields) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat is empty", dir, t.Name())
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		ns += v
	}
	return ns / 1e6, nil
}

// procPeakRSSmb returns the process's peak resident set size (VmHWM) in
// megabytes (10^6 bytes), from /proc/<pid>/status (Linux only).
func procPeakRSSmb(pid int) (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status VmHWM: %w", pid, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}
