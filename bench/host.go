package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the block every output carries, so a number can be traced
// to the machine, toolchain, commit, seed and engine that produced it.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is `git rev-parse HEAD`, "unknown" outside a git checkout
	// (the benchmark driver's checkouts are plain directories).
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty"`
	Seed   uint64 `json:"seed"`
	// Engine names the simulation loops the workload runs.
	Engine  string `json:"engine"`
	Clients int    `json:"clients"`
}

func newHostInfo(seed uint64, engine string, clients int) hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: "unknown", Seed: seed, Engine: engine, Clients: clients,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
		status := exec.Command("git", "status", "--porcelain")
		status.Env = append(os.Environ(), "GIT_OPTIONAL_LOCKS=0") // read only: do not refresh the index
		if st, err := status.Output(); err == nil {
			h.Dirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	return h
}

// checkParallelism enforces the harness's load-generation rule: all load
// comes from this one process, on at most nproc processors, through at
// most nproc client goroutines. More would measure the host's scheduler.
func checkParallelism(clients int) error {
	nproc := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g > nproc {
		return fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d: refusing to run oversubscribed", g, nproc)
	}
	if clients < 1 || clients > nproc {
		return fmt.Errorf("-clients=%d must be between 1 and nproc=%d", clients, nproc)
	}
	return nil
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
