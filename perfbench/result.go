package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json: every run reports
// every metric of its kind, in these units.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the attack sees. error_rate is not
// among them: it is 0 on a correct run, and the result's failed /
// attempted fields carry it. Campaign latency is printed but reported
// only by the traced run, among the ungated metrics: on a shared
// two-core machine its run-to-run spread exceeds any usable bound.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"total_s", "s"},
	{"victims_per_s", "1/s"},
	{"identify_rate", "ratio"},
	{"match_rate", "ratio"},
	{"hammer_rounds_per_victim", "count"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are the traced run's per-layer metrics, with the
// campaign latencies. A layer a workload does not load reports 0.
var layerMetrics = []metricDef{
	{"campaign_p50_s", "s"},
	{"campaign_tail_s", "s"},
	{"zoo.build_s", "s"},
	{"zoo.build_cpu_util", "ratio"},
	{"zoo.store_open_s", "s"},
	{"zoo.models_trained", "count"},
	{"fingerprint.dataset_s", "s"},
	{"fingerprint.train_s", "s"},
	{"fingerprint.train_cpu_util", "ratio"},
	{"fingerprint.train_samples", "count"},
	{"fingerprint.vector_train_s", "s"},
	{"core.identify_s", "s"},
	{"core.extract_s", "s"},
	{"core.evaluate_s", "s"},
	{"core.victim_queries", "count"},
	{"extract.layer_s", "s"},
	{"extract.retries", "count"},
	{"extract.read_yield", "ratio"},
	{"sidechannel.phys_reads", "count"},
	{"sidechannel.read_faults", "count"},
	{"service.submit_s", "s"},
	{"service.queue_wait_s", "s"},
	{"service.run_s", "s"},
	{"service.status_read_s", "s"},
	{"service.queue_depth_max", "count"},
	{"gen.lag_s", "s"},
	{"obs.trace_overhead", "ratio"},
	{"self.zoo_s", "s"},
	{"self.fingerprint_s", "s"},
	{"self.core_s", "s"},
	{"self.extract_s", "s"},
	{"self.service_s", "s"},
}

// outcome is what one run of a workload measured.
type outcome struct {
	setups    []float64 // wall seconds of each set-up repetition
	attack    float64   // attack time a user waits, added to set-up in total_s
	phase     float64   // wall seconds of the whole attack phase
	victims   int       // victim attacks completed in the attack phase
	campaigns []float64 // latency of each campaign, seconds
	exact     exactOutputs
	attempted int64
	failures  []string
	// layers holds a traced run's per-layer metrics, keyed as in
	// layerMetrics.
	layers map[string]float64
	// notes are extra lines for the human-readable table.
	notes []string
}

// check counts one attempted operation or output check and records it
// as failed when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) total() float64 { return median(o.setups) + o.attack }

// exactOutputs accumulates the deterministic outputs of a fixed set of
// victim attacks: for a given seed they repeat exactly, on any machine
// and with or without tracing.
type exactOutputs struct {
	victims    int
	identified int
	extracted  int
	matchSum   float64
	hammer     int64
}

func (e *exactOutputs) add(correct bool, extracted bool, match float64, hammer int64) {
	e.victims++
	if correct {
		e.identified++
	}
	if extracted {
		e.extracted++
		e.matchSum += match
	}
	e.hammer += hammer
}

func (e exactOutputs) identifyRate() float64 { return ratio(float64(e.identified), float64(e.victims)) }
func (e exactOutputs) matchRate() float64    { return ratio(e.matchSum, float64(e.extracted)) }
func (e exactOutputs) hammerPerVictim() float64 {
	return ratio(float64(e.hammer), float64(e.victims))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(defs []metricDef, values map[string]float64, o *outcome) result {
	r := result{Metrics: map[string]metricValue{}, Attempted: o.attempted, Failed: int64(len(o.failures))}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	r.Correct = r.Failed == 0
	return r
}

// endToEnd turns an untraced run into the end-to-end result.
func endToEnd(o *outcome) result {
	return newResult(endToEndMetrics, map[string]float64{
		"setup_s":                  median(o.setups),
		"total_s":                  o.total(),
		"victims_per_s":            ratio(float64(o.victims), o.phase),
		"identify_rate":            o.exact.identifyRate(),
		"match_rate":               o.exact.matchRate(),
		"hammer_rounds_per_victim": o.exact.hammerPerVictim(),
		"peak_rss_mb":              peakRSSMB(),
	}, o)
}

// perLayer turns a traced run, and the untraced run it is compared
// with, into the per-layer result.
func perLayer(ref, o *outcome, spans *spanLog) result {
	values := map[string]float64{}
	for k, v := range o.layers {
		values[k] = v
	}
	for layer, self := range spans.selfTimes() {
		values["self."+layer+"_s"] = self
	}
	values["obs.trace_overhead"] = (o.total() - ref.total()) / ref.total()
	values["campaign_p50_s"] = median(o.campaigns)
	values["campaign_tail_s"], _, _ = tailLatency(o.campaigns)
	return newResult(layerMetrics, values, o)
}

// crossCheck folds the untraced run's operations and checks into the
// traced run's, and fails the traced run unless it reproduced the
// untraced run's deterministic outputs exactly: tracing must not
// perturb the program.
func crossCheck(ref, o *outcome) {
	o.attempted += ref.attempted
	o.failures = append(ref.failures, o.failures...)
	o.check(ref.exact == o.exact,
		"traced run's deterministic outputs %+v differ from the untraced run's %+v", o.exact, ref.exact)
}

func (r result) printTable(w io.Writer, o *outcome) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	tail, pct, n := tailLatency(o.campaigns)
	fmt.Fprintf(w, "%-28s p50 %.6g s, tail %.6g s at p%.1f of %d campaigns\n", "campaign latency",
		median(o.campaigns), tail, pct, n)
	fmt.Fprintf(w, "%-28s %14.6g ratio (%d failed of %d attempted)\n", "error_rate",
		ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
	for _, f := range o.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailLatency returns the latency at the highest percentile that has at
// least ten samples beyond it, that percentile, and the sample count.
// Below 21 samples no percentile above the median qualifies, and the
// maximum is reported as p100.
func tailLatency(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 11 // the sample with ten beyond it
	if n < 21 {
		k = n - 1
	}
	return s[k], 100 * float64(k+1) / float64(n), n
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := math.Inf(-1)
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
