// Command perfbench is the repository benchmark.  Given a workload and a
// seed it runs a fixed, seeded sequence of operations through the steac
// daemon (in-process, over loopback HTTP) or through the in-process
// STIL-to-verified-netlist path, checks every output, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer metrics — as one
// JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload flow-sweep --seed 1 --seconds 15 --trace 0
//
// run.sh builds this program, builds the seed's state-directory fixture
// in a separate process (--mode fixture), then runs the workload in a
// fresh process.  See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "nominal run length; fixes the op count")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	root := fs.String("root", ".", "checkout root")
	mode := fs.String("mode", "run", "run, or fixture to build the seed's state directory")
	smoke := fs.Bool("smoke", false, "tiny fixture and op count (machinery check)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	c := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke,
		root: *root, state: filepath.Join(*root, ".bench_build", "perfbench")}

	switch *mode {
	case "fixture":
		if !w.daemon {
			return 0
		}
		if _, err := ensureFixture(c.fixtureRoot(), c.seed, c.fixtureSize()); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case "signoff-costs":
		if err := measureSignoffCosts(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case "run":
	default:
		fmt.Fprintf(stderr, "perfbench: unknown --mode %q\n", *mode)
		return 2
	}

	out, err := runWorkload(c)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := emit(stdout, c, out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit prints the report lines, the diagnostics record and, last, the
// result object; the diagnostics also land beside the state directory.
func emit(w io.Writer, c config, out *outcome) error {
	for _, line := range out.report {
		fmt.Fprintln(w, line)
	}
	diag := struct {
		Workload      string `json:"workload"`
		Seed          int64  `json:"seed"`
		Trace         bool   `json:"trace"`
		ResultsDigest string `json:"results_digest"`
		Host          noise  `json:"host"`
	}{c.w.name, c.seed, c.trace, out.digest, out.host}
	blob, err := json.Marshal(diag)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "diagnostics %s\n", blob)
	runs := filepath.Join(c.state, "runs")
	if err := os.MkdirAll(runs, 0o755); err == nil {
		trace := 0
		if c.trace {
			trace = 1
		}
		// A convenience copy of the printed line; losing it loses nothing.
		_ = os.WriteFile(filepath.Join(runs, fmt.Sprintf("%s-seed%d-trace%d.json", c.w.name, c.seed, trace)), blob, 0o644)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range out.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", res)
	return err
}
