package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSpread runs one workload --runs times, each in its own process with
// the next seed, and prints every metric's median, quartiles and
// interquartile range relative to the median. It flags each end-to-end
// metric whose spread exceeds its bound in BENCHMARK.json (when that file is
// in the current directory) as unresolved: a difference smaller than that
// spread cannot be told from noise.
func runSpread(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench spread", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 5, "number of runs")
	seed := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.String("seconds", "20", "run length of each run in seconds")
	trace := fs.String("trace", "0", "1 spreads the per-layer metrics instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !knownWorkload(*workload) || *runs < 1 {
		fmt.Fprintf(stderr, "perfbench spread: need --workload (one of %v) and --runs >= 1\n", workloadNames)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench spread:", err)
		return 1
	}
	limits := readBounds("BENCHMARK.json")
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < *runs; i++ {
		s := strconv.FormatInt(*seed+int64(i), 10)
		cmd := exec.Command(self, "--workload", *workload, "--seed", s, "--seconds", *seconds, "--trace", *trace)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench spread: run with seed %s: %v\n%s", s, err, buf.String())
			return 1
		}
		sum, err := lastSummary(buf.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "perfbench spread: run with seed %s: %v\n", s, err)
			return 1
		}
		fmt.Fprintf(stdout, "seed %s: %s", s, stealNotes(buf.Bytes()))
		for _, name := range sortedKeys(sum.Metrics) {
			m := sum.Metrics[name]
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			fmt.Fprintf(stdout, " %s=%.6g", name, m.Value)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%-26s %-6s %12s %12s %12s %9s %7s\n", "metric", "unit", "q1", "median", "q3", "iqr/med", "bound")
	unresolved := 0
	for _, name := range sortedKeys(values) {
		q1, q2, q3 := quartiles(values[name])
		rel := 0.0
		if q2 != 0 {
			rel = (q3 - q1) / q2
			if rel < 0 {
				rel = -rel
			}
		}
		bound, note := "", ""
		if b, ok := limits[name]; ok {
			bound = strconv.FormatFloat(b, 'g', 3, 64)
			if rel > b {
				note = "  UNRESOLVED: spread exceeds the bound"
				unresolved++
			} else if rel > b/3 {
				note = "  spread above a third of the bound"
			}
		}
		fmt.Fprintf(stdout, "%-26s %-6s %12.6g %12.6g %12.6g %9.4f %7s%s\n", name, units[name], q1, q2, q3, rel, bound, note)
	}
	if unresolved > 0 {
		fmt.Fprintf(stdout, "%d metrics unresolved\n", unresolved)
	}
	return 0
}

// stealNotes returns the steal share of a run's timed window and, for an
// untraced run, how many passes its timings came from and their steal
// share, as the run printed them: "steal=0.0310 timed=12/15@0.0041".
func stealNotes(out []byte) string {
	steal, timed := "?", ""
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "host steal share "); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				steal = f[0]
			}
		}
		var picked, total int
		var share float64
		if n, _ := fmt.Sscanf(line, "timings below are taken from %d of %d passes (steal share %g", &picked, &total, &share); n == 3 {
			timed = fmt.Sprintf(" timed=%d/%d@%.4f", picked, total, share)
		}
	}
	return "steal=" + steal + timed
}

// lastSummary parses the JSON object on the last line of a run's output.
func lastSummary(out []byte) (*summary, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = sc.Text()
		}
	}
	var sum summary
	if err := json.Unmarshal([]byte(last), &sum); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &sum, nil
}

// readBounds returns each end-to-end metric's bound from the benchmark
// definition, or nil when the file cannot be read.
func readBounds(path string) map[string]float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var def struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &def) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range def.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
