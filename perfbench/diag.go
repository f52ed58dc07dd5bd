package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostTicks is the aggregate cpu line of /proc/stat.
type hostTicks struct{ total, iowait, steal uint64 }

func readHostTicks() hostTicks {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := bytes.Cut(blob, []byte("\n"))
	fields := strings.Fields(string(line))
	var t hostTicks
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		switch i {
		case 4:
			t.iowait = v
		case 7:
			t.steal = v
		}
	}
	return t
}

// calibrationSink keeps the calibration loop from being optimized away.
var calibrationSink uint64

// calibrate times a fixed integer loop; a slow host shows up here as well
// as in the workload.
func calibrate() time.Duration {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 30_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	calibrationSink += x
	return time.Since(t0)
}

// noise is the per-run host-noise record, kept beside the metrics.
type noise struct {
	StealFrac       float64 `json:"steal_frac"`
	IOWaitFrac      float64 `json:"iowait_frac"`
	CalibrateMSPre  float64 `json:"calibrate_ms_before"`
	CalibrateMSPost float64 `json:"calibrate_ms_after"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	GitRevision     string  `json:"git_revision"`
	SourceSHA256    string  `json:"source_sha256"`
}

func tickFrac(a, b hostTicks, pick func(hostTicks) uint64) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(pick(b)-pick(a)) / float64(b.total-a.total)
}

// gitRevision resolves HEAD without running git; checkouts without .git
// report "none".
func gitRevision(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if rev, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(rev))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files of the checkout, so
// a run names the code it measured even outside a git repository.
func sourceDigest(root string) string {
	h := sha256.New()
	// Walk visits files in lexical order, so the digest is stable.
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() && strings.HasPrefix(info.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !info.Mode().IsRegular() || !(strings.HasSuffix(path, ".go") || info.Name() == "go.mod") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", rel, len(blob))
		h.Write(blob)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// withHost adds the host and code identity to a run's noise readings.
func withHost(n noise, root string) noise {
	n.GOMAXPROCS = runtime.GOMAXPROCS(0)
	n.GoVersion = runtime.Version()
	n.GitRevision = gitRevision(root)
	n.SourceSHA256 = sourceDigest(root)
	return n
}
