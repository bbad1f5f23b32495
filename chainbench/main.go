// Command chainbench is the repository's end-to-end benchmark: it drives
// the live substrate (real goroutines, wall clock) with an open-loop,
// fixed-packet-rate trace and counts a packet only once it completed —
// root clock stamp, every NF, the Fig 6 delete and sink delivery.
//
//	bash chainbench/run.sh --workload fork-steady --seed 1 --seconds 30 --trace 0
//
// Each run repeats trials (a fresh chain, one trace, drain) until its
// measuring time is spent and reports the interquartile mean of the trials.
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// breakdown of a separately traced run. The last line of standard output is one JSON
// object; a readable summary goes to standard error. BENCHMARK.json at the
// repository root lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"slices"
	"sort"
	"time"
)

// minSetups is how many set-ups a run times at least (trials set up a
// chain each; short runs add stand-alone set-ups), so setup_s is a median.
const minSetups = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same traces")
	seconds := flag.Int("seconds", 10, "measuring time of the run")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "chainbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	// One P, so a hop between the chain's goroutines is a run-queue switch
	// rather than a wake-up of another CPU, whose latency on a shared
	// virtual machine follows the host's scheduling (README.md).
	goruntime.GOMAXPROCS(1)

	budget := time.Duration(*seconds) * time.Second
	var rep report
	if *traced == 1 {
		rep = measureTraced(w, *seed, budget)
	} else {
		rep = measure(w, *seed, budget)
	}
	printSummary(rep)
	line, err := json.Marshal(rep)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// trialSeed derives trial i's seed from the run's seed.
func trialSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// runTrials runs trials until the next one would overrun the budget (at
// least one), stopping early at a correctness violation.
func runTrials(w workload, seed int64, budget time.Duration) []trialResult {
	start := time.Now()
	var trials []trialResult
	for i := 0; ; i++ {
		t0 := time.Now()
		r := runTrial(w, trialSeed(seed, i), nil)
		r.chain = nil // a finished chain's memory would weigh on later trials
		trials = append(trials, r)
		logTrial(w.name, r)
		if r.violation != "" || time.Since(start)+time.Since(t0) > budget {
			return trials
		}
	}
}

// endToEnd are the untraced run's metrics, each the interquartile mean over
// the run's trials. setup_s follows them: it is the median of the trials'
// set-ups and stand-alone ones.
var endToEnd = []struct {
	name, unit string
	of         func(trialResult) float64
}{
	{"completed_pps", "pkt/s", trialResult.completedPPS},
	{"completed_frac", "ratio", func(r trialResult) float64 { return float64(r.completed) / float64(r.offered) }},
	{"lat_p50_us", "us", func(r trialResult) float64 { return us(r.latP50) }},
	{"cpu_us_per_pkt", "us", func(r trialResult) float64 { return r.perPkt(us(r.cpu)) }},
	{"allocs_per_pkt", "count", func(r trialResult) float64 { return r.perPkt(float64(r.mallocs)) }},
	{"retained_bytes_per_pkt", "B", func(r trialResult) float64 { return r.perPkt(float64(r.retained)) }},
	{"drain_s", "s", func(r trialResult) float64 { return r.drain.Seconds() }},
}

// measure is the untraced run.
func measure(w workload, seed int64, budget time.Duration) report {
	trials := runTrials(w, seed, budget)
	rep := gateReport(trials)
	if !rep.Correct {
		return rep
	}
	for _, m := range endToEnd {
		rep.set(m.name, m.unit, iqmOf(trials, m.of))
	}
	rep.set("setup_s", "s", setupMedian(w, seed, trials))
	return rep
}

// gateReport folds the trials' correctness gates into a report: attempted
// and failed packets over all trials, and correct unless a trial broke an
// invariant outright. An incorrect report carries no metrics.
func gateReport(trials []trialResult) report {
	rep := report{Correct: true, Metrics: map[string]metric{}}
	for _, r := range trials {
		rep.Attempted += r.offered
		rep.Failed += r.failed()
		if r.violation != "" {
			rep.Correct = false
			fmt.Fprintf(os.Stderr, "chainbench: correctness violation: %s\n", r.violation)
		}
	}
	return rep
}

// setupMedian is the median set-up time over the trials' set-ups plus
// stand-alone ones, so that every run times at least minSetups.
func setupMedian(w workload, seed int64, trials []trialResult) float64 {
	var samples []float64
	for _, r := range trials {
		samples = append(samples, r.setup.Seconds())
	}
	for i := 0; len(samples) < minSetups; i++ {
		ch, d := setupChain(w, trialSeed(seed, len(trials)+i), plainMake)
		ch.Stop()
		samples = append(samples, d.Seconds())
	}
	return median(samples)
}

// iqmOf is the interquartile mean of f over the trials: the mean of the
// middle half. Like the median it ignores an outlier trial, but it does not
// jump between the modes of a two-valued quantity, such as a light
// workload's drain, which ends one or two packet latencies after the last
// injection.
func iqmOf(trials []trialResult, f func(trialResult) float64) float64 {
	vals := make([]float64, len(trials))
	for i, r := range trials {
		vals[i] = f(r)
	}
	return iqm(vals)
}

func iqm(vals []float64) float64 {
	s := slices.Clone(vals)
	sort.Float64s(s)
	k := len(s) / 4
	sum := 0.0
	for _, v := range s[k : len(s)-k] {
		sum += v
	}
	return sum / float64(len(s)-2*k)
}

func median(vals []float64) float64 {
	s := slices.Clone(vals)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func logTrial(name string, r trialResult) {
	fmt.Fprintf(os.Stderr, "%s trial: offered=%d completed=%d setup=%.3fs ingest=%.3fs drain=%.6fs lag=%.1fms "+
		"p50=%.0fus p90=%.0fus p99=%.0fus (n=%d) cpu=%.1fus/pkt allocs=%.1f/pkt retained=%.0fB/pkt drained=%v\n",
		name, r.offered, r.completed, r.setup.Seconds(), r.ingest.Seconds(), r.drain.Seconds(),
		float64(r.lag)/float64(time.Millisecond), us(r.latP50), us(r.latP90), us(r.latP99), r.latN,
		r.perPkt(us(r.cpu)), r.perPkt(float64(r.mallocs)), r.perPkt(float64(r.retained)), r.drained)
}

func printSummary(rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
