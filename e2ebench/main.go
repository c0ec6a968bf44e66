// Command e2ebench is the end-to-end benchmark of this PAST reproduction.
// It runs one named workload (archive-insert, lookup-uniform, lookup-fill
// or sim-churn) from a seed and prints every metric by name with its unit.
// The last line of its standard output is one JSON object with the run's
// verdict and the end-to-end metrics (-trace 0) or the per-layer metrics of
// a traced run (-trace 1). A failed correctness check exits 1; a run that
// cannot set up exits 2. README.md describes the workloads, configuration
// and metrics.
//
//	bash e2ebench/run.sh --workload lookup-uniform --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	buildDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer list the reported metrics with their units, in
// BENCHMARK.json's order.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"insert_ops_s", "1/s"},
	{"insert_p50_ms", "ms"},
	{"lookup_ops_s", "1/s"},
	{"lookup_p50_ms", "ms"},
	{"user_mb_s", "MB/s"},
	{"ok_frac", "frac"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = [][2]string{
	{"seccrypt.issue_cert_us.8KiB", "us"},
	{"seccrypt.verify_cert_us", "us"},
	{"seccrypt.sign_receipt_us", "us"},
	{"seccrypt.verify_receipt_us", "us"},
	{"seccrypt.memo_hit_frac", "frac"},
	{"transport.frame_rtt_us.64B", "us"},
	{"transport.frame_rtt_us.4KiB", "us"},
	{"transport.frame_rtt_us.256KiB", "us"},
	{"transport.lo_bytes_per_op", "B"},
	{"transport.dials_per_op", "count"},
	{"storage.disk_put_us.8KiB", "us"},
	{"storage.disk_put_us.256KiB", "us"},
	{"storage.mem_put_us.8KiB", "us"},
	{"storage.disk_bytes_per_user_byte", "B/B"},
	{"past.lookup_hops", "count"},
	{"past.lookup_local_frac", "frac"},
	{"past.cache_hit_frac", "frac"},
	{"past.insert_retries_per_op", "count"},
	{"past.diverted_frac", "frac"},
	{"past.maint_msgs_per_op", "count"},
	{"past.maint_bytes_per_op", "B"},
	{"pastry.join_ms_p50", "ms"},
	{"pastry.leafset_min", "count"},
	{"pastry.bad_view_boot_frac", "frac"},
	{"simnet.msgs_per_op", "count"},
	{"simnet.msgs_s", "1/s"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_pause_ms_per_s", "ms/s"},
	{"budget.insert_explained_frac", "frac"},
	{"budget.lookup_explained_frac", "frac"},
	{"trace.overhead_p50_frac", "frac"},
	{"tail.insert_p99_ms", "ms"},
	{"tail.lookup_p99_ms", "ms"},
	{"samples.insert", "count"},
	{"samples.lookup", "count"},
}

func run(o options) (*result, error) {
	var tr *tracer
	probes := map[string]float64{}
	if o.trace {
		// The probes run first, on an idle process, so no cluster competes
		// with them for the cores.
		tr = newTracer()
		if err := runProbes(o, tr, probes); err != nil {
			return nil, err
		}
	}
	var m *measurement
	var err error
	real := true
	switch o.workload {
	case "sim-churn":
		real = false
		m, err = runSim(o, tr)
	default:
		spec, ok := specs[o.workload]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (want archive-insert, lookup-uniform, lookup-fill or sim-churn)", o.workload)
		}
		m, err = runReal(o, spec, tr)
	}
	if err != nil {
		return nil, err
	}
	for name, v := range probes {
		m.layer[name] = v
	}
	attempted, failed, mismatches := m.verdict()
	res := &result{Correct: mismatches == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	vals, names := m.endToEnd(), endToEnd
	if o.trace {
		vals, names = m.perLayer(real), perLayer
		path := filepath.Join(o.buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.dump(path); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %d written to %s\n", tr.len(), path)
	}
	fmt.Printf("%s seed %d (GOMAXPROCS %d, %d CPUs): %d ops attempted, %d failed, %d failed a correctness check\n",
		o.workload, o.seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), attempted, failed, mismatches)
	for _, r := range []*clientRec{&m.phase, &m.back} {
		for _, e := range slices.Sorted(maps.Keys(r.errs)) {
			fmt.Printf("  %6d x %s\n", r.errs[e], e)
		}
	}
	insN := len(m.phase.ins[0].lat) + len(m.phase.ins[1].lat)
	lk, _ := m.lookups()
	for _, nu := range names {
		v := vals[nu[0]]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[nu[0]] = metric{Value: v, Unit: nu[1]}
		note := ""
		switch nu[0] {
		case "insert_p50_ms", "tail.insert_p99_ms":
			note = fmt.Sprintf("  (n=%d)", insN)
		case "lookup_p50_ms", "tail.lookup_p99_ms":
			note = fmt.Sprintf("  (n=%d)", len(lk.lat))
		}
		fmt.Printf("  %-34s %14.4f %s%s\n", nu[0], v, nu[1], note)
	}
	if !o.trace {
		// The tails are too noisy to bound on a shared host; they are
		// printed here and reported by the traced run.
		fmt.Printf("  %-34s %14.4f ms  (n=%d)\n", "insert_p99_ms", quantileMs(both(&m.phase.ins).lat, 0.99), insN)
		fmt.Printf("  %-34s %14.4f ms  (n=%d)\n", "lookup_p99_ms", quantileMs(lk.lat, 0.99), len(lk.lat))
	}
	return res, nil
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "archive-insert, lookup-uniform, lookup-fill or sim-churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	secs := flag.Int("seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	o.seconds = time.Duration(*secs) * time.Second
	o.trace = trace == 1
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	o.buildDir = filepath.Join(wd, ".bench_build")
	res, err := run(o)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(2)
}
