// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed number of seconds from a seed, checks every
// output the system under test produces, and prints its metrics as the last
// line of standard output:
//
//	perfbench -cabled PATH --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: table2 and pta-lattice call the batch pipeline in-process;
// session and stream drive a cabled child process over loopback. With
// --trace 0 the result holds the end-to-end metrics; with --trace 1 it holds
// the per-layer metrics of a traced run (see README.md). run.sh builds the
// benchmark and cabled from source and calls this program.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	cabled   string // path to the cabled binary (HTTP workloads)
	tmp      string // parent directory for the child's snapshot dirs
	root     string // checkout root, for the source fingerprint
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"table2":      runTable2,
	"pta-lattice": runPTALattice,
	"session":     runSession,
	"stream":      runStream,
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fp := fingerprint(o)
	line, err := json.Marshal(fp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: fingerprint:", err)
		os.Exit(1)
	}
	fmt.Printf("fingerprint %s\n", line)
	rep, err := workloads[o.workload](o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := rep.result(o.trace)
	rep.print(os.Stdout, o)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	fs.StringVar(&o.cabled, "cabled", ".bench_build/cabled", "cabled binary driven by the HTTP workloads")
	fs.StringVar(&o.tmp, "tmp", ".bench_build", "directory that holds the child's temporary snapshot dirs")
	fs.StringVar(&o.root, "root", ".", "checkout root whose sources are fingerprinted")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return o, errors.New("--seconds must be at least 1")
	}
	switch *traceFlag {
	case 0, 1:
		o.trace = *traceFlag == 1
	default:
		return o, fmt.Errorf("--trace must be 0 or 1, not %d", *traceFlag)
	}
	return o, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// inputSets is how many seeded input sets a batch workload draws from its
// seed. Inputs drawn from one seed differ in size from those of the next;
// spreading each run over several sets keeps that from moving the medians.
const inputSets = 8

// subSeed derives the seed of a workload's j-th input set.
func subSeed(seed int64, j int) int64 { return seed + 7919*int64(j) }

// phaseSplit returns the untraced and traced phase lengths of a run: a
// traced run spends half its time untraced, so trace_overhead_pct compares
// two phases of one process on the same inputs.
func phaseSplit(o options) (untraced, traced time.Duration) {
	total := time.Duration(o.seconds) * time.Second
	if !o.trace {
		return total, 0
	}
	return total / 2, total - total/2
}
