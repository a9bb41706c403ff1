// Command perfbench is the repository's end-to-end benchmark. It drives the
// analysis pipeline only through public entry points with the defaults a
// user gets (zero core.Options, zero server.Config), times one workload for
// a fixed run length, checks every result against a reference computed in
// set-up, and prints each metric by name with its unit. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload eval_cold --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh spread --workload rosa_grid --runs 5 --seconds 20
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same workload
// untraced for the first half of the run and traced for the second, and
// reports the per-layer metrics plus the tracing overhead. README.md in this
// directory lists the workloads and the layer → metric → end-to-end map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	run      time.Duration
	trace    bool
	// traceOut receives the traced run's spans as JSONL
	// (.bench_build/trace-<workload>-<seed>.jsonl).
	traceOut string
	// setups is how many set-ups setup_s is the median of (3).
	setups int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final JSON line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "spread" {
		return runSpread(args[1:], stdout, stderr)
	}
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	sum, err := execute(cfg, stdout)
	return finish(sum, err, stdout, stderr)
}

// finish prints the result line and returns the exit code. A run that
// could not complete (sum is nil) prints no result; a completed run with a
// failed op or a failed check prints its result and still exits 1.
func finish(sum *summary, err error, stdout, stderr io.Writer) int {
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if sum == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(sum)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil || !sum.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	fs.Float64Var(&seconds, "seconds", 20, "timed run length in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.run = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.setups = 3
	cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
	var err error
	switch {
	case !knownWorkload(cfg.workload):
		err = fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	case trace != 0 && trace != 1:
		err = errors.New("--trace must be 0 or 1")
	case cfg.run <= 0:
		err = errors.New("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
	}
	return cfg, err
}
