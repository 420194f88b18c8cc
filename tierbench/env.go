package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// env stamps a result set with the machine and code it came from.
type env struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Rev is tierd's embedded VCS revision ("unknown" outside a git
	// checkout); Tree hashes the Go sources it was built from, so two
	// result sets from different code never look alike.
	Rev  string `json:"rev"`
	Tree string `json:"tree"`
	// DriverPinned is true when the driver ran on one CPU (see
	// cpuPlacement).
	DriverPinned bool `json:"driver_pinned"`
}

func (e env) String() string {
	return fmt.Sprintf("cpu %q, NumCPU %d, GOMAXPROCS %d, %s, rev %s, tree %s, driver pinned to one CPU: %v",
		e.CPU, e.NumCPU, e.GOMAXPROCS, e.Go, e.Rev, e.Tree, e.DriverPinned)
}

// sameMachine reports whether two stamps come from comparable machines.
func (e env) sameMachine(o env) bool {
	return e.CPU == o.CPU && e.NumCPU == o.NumCPU && e.GOMAXPROCS == o.GOMAXPROCS && e.Go == o.Go &&
		e.DriverPinned == o.DriverPinned
}

func stampEnv(binDir string) env {
	e := env{CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Rev: "unknown", Tree: treeHash(".")}
	if out, err := exec.Command(filepath.Join(binDir, "tierd"), "-version").Output(); err == nil {
		e.Rev = strings.TrimSpace(strings.TrimPrefix(string(out), "tierd "))
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// treeHash hashes every .go file and go.mod under root (build output
// excluded) in path order.
func treeHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// compareResults prints two result sets side by side, warning loudly
// when they were measured on different machines.
func compareResults(pathA, pathB string) error {
	var a, b result
	for _, x := range []struct {
		path string
		r    *result
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, x.r); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	fmt.Printf("A: %s (%s seed %d)\n   %s\nB: %s (%s seed %d)\n   %s\n",
		pathA, a.Workload, a.Seed, a.Env, pathB, b.Workload, b.Seed, b.Env)
	if !a.Env.sameMachine(b.Env) {
		fmt.Println("WARNING: the two result sets come from DIFFERENT MACHINES or toolchains;")
		fmt.Println("WARNING: the differences below mix code changes with hardware changes.")
	}
	if a.Workload != b.Workload {
		fmt.Println("WARNING: the two result sets are for different workloads.")
	}
	if a.TierdCPUs != b.TierdCPUs {
		fmt.Printf("WARNING: tierd ran on %d CPU(s) in A and %d in B.\n", a.TierdCPUs, b.TierdCPUs)
	}
	names := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		if _, ok := b.Metrics[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		va, vb := a.Metrics[k], b.Metrics[k]
		change := "n/a"
		if va != 0 {
			change = fmt.Sprintf("%+.1f%%", (vb-va)/va*100)
		}
		fmt.Printf("  %-36s %14.4f %14.4f %8s %s\n", k, va, vb, change, a.Units[k])
	}
	return nil
}
