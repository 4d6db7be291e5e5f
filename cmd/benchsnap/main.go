// Command benchsnap records and gates the repository's benchmark
// trajectory. It produces two committed snapshot files:
//
//	BENCH_extract.json   — deterministic extraction economics: physical
//	                       bit reads, hammer rounds, clone match, and
//	                       scheduler savings for the baseline and the
//	                       information-ordered scheduler on an identical
//	                       faulted channel. These are exact simulated
//	                       counts: the gate compares them for equality,
//	                       so a regression of even one hammer round is
//	                       visible in review.
//	BENCH_substrate.json — substrate hot-path timings (GEMM, transformer
//	                       forward/backward, level-1 CNN conv and train
//	                       step, trace simulation/render, Algorithm 1)
//	                       normalized by in-process scalar-triad
//	                       calibration bursts paired with short runs of
//	                       each metric, so the numbers track the code,
//	                       not the machine. The gate
//	                       compares them within a tolerance (default
//	                       ±20%, -tol to adjust).
//
// Usage:
//
//	benchsnap -write            # regenerate both snapshots
//	benchsnap -gate             # compare current numbers to snapshots
//	benchsnap -gate -quick      # deterministic extract gate only (CI smoke)
//	benchsnap -gate -tol 0.5    # relax the timing tolerance
//
// A gate failure exits non-zero and prints every violated metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"decepticon/internal/extract"
	"decepticon/internal/fingerprint"
	"decepticon/internal/fsatomic"
	"decepticon/internal/gpusim"
	"decepticon/internal/ieee754"
	"decepticon/internal/nn"
	"decepticon/internal/obs"
	"decepticon/internal/rng"
	"decepticon/internal/sidechannel"
	"decepticon/internal/stats"
	"decepticon/internal/tensor"
	"decepticon/internal/traceimg"
	"decepticon/internal/transformer"
	"decepticon/internal/zoo"
)

// snapshot is one committed benchmark file. Exact metrics are
// deterministic simulated counts compared for equality; Normalized
// metrics are timing ratios compared within the gate tolerance.
type snapshot struct {
	Version    int                `json:"version"`
	Kind       string             `json:"kind"`
	Note       string             `json:"note"`
	Exact      map[string]float64 `json:"exact,omitempty"`
	Normalized map[string]float64 `json:"normalized,omitempty"`
}

const (
	extractFile   = "BENCH_extract.json"
	substrateFile = "BENCH_substrate.json"
)

func main() {
	testing.Init() // registers -test.benchtime, which measure sets
	write := flag.Bool("write", false, "regenerate the committed snapshot files")
	gate := flag.Bool("gate", false, "compare current measurements against the committed snapshots")
	quick := flag.Bool("quick", false, "deterministic extract metrics only (skip timing measurements)")
	tol := flag.Float64("tol", 0.20, "relative tolerance for normalized timing metrics")
	dir := flag.String("dir", ".", "directory holding the snapshot files")
	flag.Parse()
	if *write == *gate {
		fmt.Fprintln(os.Stderr, "benchsnap: exactly one of -write or -gate is required")
		os.Exit(2)
	}

	cur := map[string]*snapshot{extractFile: extractSnapshot()}
	if !*quick {
		// A gate run is one pass; the committed reference is the
		// per-metric median of snapPasses passes, so one slow spell at
		// snapshot time does not become the bar every later run is held
		// to.
		passes := 1
		if *write {
			passes = snapPasses
		}
		subs := make([]*snapshot, passes)
		for i := range subs {
			subs[i] = substrateSnapshot()
		}
		cur[substrateFile] = medianSnapshot(subs)
	}

	if *write {
		for name, s := range cur {
			path := filepath.Join(*dir, name)
			data, err := json.MarshalIndent(s, "", "  ")
			if err != nil {
				fatal(err)
			}
			// Atomic (temp + rename): a crash mid-write must never leave a
			// truncated snapshot that would then be committed and gate
			// every future run against garbage.
			if err := fsatomic.WriteFile(path, append(data, '\n')); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		return
	}

	failures := 0
	for name, curSnap := range cur {
		path := filepath.Join(*dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(fmt.Errorf("no committed snapshot %s (run benchsnap -write): %w", path, err))
		}
		want := &snapshot{}
		if err := json.Unmarshal(data, want); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		failures += compare(name, want, curSnap, *tol)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchsnap: gate FAILED (%d metric(s) out of bounds)\n", failures)
		os.Exit(1)
	}
	fmt.Println("benchsnap: gate passed")
}

// compare reports violations of one snapshot and returns their count.
func compare(name string, want, got *snapshot, tol float64) int {
	bad := 0
	for _, key := range sortedKeys(want.Exact) {
		w, g := want.Exact[key], got.Exact[key]
		if w != g {
			fmt.Fprintf(os.Stderr, "%s: %s = %v, snapshot says %v (exact metric — must match)\n",
				name, key, g, w)
			bad++
		}
	}
	for _, key := range sortedKeys(want.Normalized) {
		w, g := want.Normalized[key], got.Normalized[key]
		if w == 0 {
			continue
		}
		if r := math.Abs(g-w) / w; r > tol {
			fmt.Fprintf(os.Stderr, "%s: %s = %.4f, snapshot says %.4f (%.1f%% off, tolerance %.0f%%)\n",
				name, key, g, w, 100*r, 100*tol)
			bad++
		}
	}
	// New metrics the snapshot has never seen are not failures (the next
	// -write picks them up), but surface them so a stale file is visible.
	for _, key := range sortedKeys(got.Exact) {
		if _, ok := want.Exact[key]; !ok {
			fmt.Fprintf(os.Stderr, "%s: new exact metric %s = %v not in snapshot (run benchsnap -write)\n",
				name, key, got.Exact[key])
		}
	}
	return bad
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchsnap:", err)
	os.Exit(1)
}

// ----------------------------------------------------------- extract gate

// extractSnapshot runs the baseline and the information-ordered
// scheduler over the same deterministic victim and faulted channel —
// the operating point of the reliability experiment's comparison rows —
// and records the exact extraction economics. Everything here is
// simulated and seeded, so the values are bit-stable across runs and
// machines of the same architecture.
func extractSnapshot() *snapshot {
	cfg := zoo.SmallBuildConfig()
	cfg.NumPretrained = 2
	cfg.NumFineTuned = 2
	cfg.PretrainExamples = 60
	cfg.FineTuneExamples = 60
	z := zoo.MustBuild(cfg)
	victim := z.FineTuned[0]
	plan := &sidechannel.FaultPlan{Seed: 9, TransientRate: 0.02, StuckRate: 0.0002}

	run := func(scheduled bool) (*extract.Stats, float64) {
		oracle := sidechannel.NewOracle(victim.Model())
		oracle.SetFaultPlan(plan.ForVictim(victim.Name))
		ecfg := extract.DefaultConfig()
		ecfg.ReadRepeats = 3
		ecfg.StopMatchRate = 2 // full extraction: compare complete read schedules
		if scheduled {
			ecfg.Schedule = extract.DefaultSchedulerConfig()
		}
		ex := &extract.Extractor{
			Pre:    victim.Pretrained.Model(),
			Oracle: oracle,
			Cfg:    ecfg,
		}
		clone, st, err := ex.Run(victim.Task.Labels, victim.Dev)
		if err != nil {
			fatal(err)
		}
		match := stats.MatchRate(victim.Model().Predictions(victim.Dev), clone.Predictions(victim.Dev))
		return st, match
	}
	base, baseMatch := run(false)
	sched, schedMatch := run(true)

	ratio := float64(base.PhysicalBitReads) / float64(sched.PhysicalBitReads)
	if ratio < 1.5 {
		fatal(fmt.Errorf("scheduler saves only %.2fx physical reads (acceptance floor 1.5x)", ratio))
	}
	if schedMatch < baseMatch {
		fatal(fmt.Errorf("scheduled clone match %.4f below baseline %.4f", schedMatch, baseMatch))
	}

	return &snapshot{
		Version: 1,
		Kind:    "extract",
		Note:    "deterministic extraction economics on a seeded faulted channel (ReadRepeats=3); exact counts, gated for equality",
		Exact: map[string]float64{
			"baseline_phys_reads":     float64(base.PhysicalBitReads),
			"baseline_hammer_rounds":  float64(base.HammerRounds()),
			"baseline_match":          baseMatch,
			"scheduled_phys_reads":    float64(sched.PhysicalBitReads),
			"scheduled_hammer_rounds": float64(sched.HammerRounds()),
			"scheduled_match":         schedMatch,
			"scheduled_bits_elided":   float64(sched.BitsElided),
			"scheduled_vote_width":    sched.MeanVoteWidth(),
			"scheduled_probe_reads":   float64(sched.ProbeReads),
		},
	}
}

// --------------------------------------------------------- substrate gate

// calibrate times a fixed scalar-triad loop calibSamples times and
// returns each sample's ns per pass. Dividing a substrate timing by this
// factor cancels the host's raw float throughput, leaving a
// machine-portable ratio that moves only when the measured code changes
// shape.
func calibrate() []float64 {
	a := make([]float32, 4096)
	c := make([]float32, 4096)
	for i := range a {
		a[i] = float32(i%7) * 0.25
		c[i] = float32(i%5) * 0.5
	}
	s := float32(1.0001)
	out := make([]float64, calibSamples)
	for k := range out {
		start := time.Now()
		for p := 0; p < calibPasses; p++ {
			for j := range a {
				a[j] += s * c[j]
			}
		}
		out[k] = float64(time.Since(start).Nanoseconds()) / calibPasses
	}
	return out
}

// A normalized metric is the median over measureRounds rounds of one
// ratio: the metric's ns/op over roundTime of iterations, divided by the
// median of calibSamples triad bursts (a few ms) taken right before it.
// A shared host's throughput swings by 2x within seconds, so a single
// start-up calibration lets a slow spell move every ratio at once;
// pairing each short run with an adjacent calibration keeps both on the
// same side of a swing.
const (
	calibSamples  = 3
	calibPasses   = 500
	measureRounds = 30
	roundTime     = "20ms"
)

// snapPasses is how many substrate passes -write takes the median of.
const snapPasses = 3

// medianSnapshot returns subs[0] with every normalized metric replaced by
// its median across subs.
func medianSnapshot(subs []*snapshot) *snapshot {
	out := subs[0]
	for key := range out.Normalized {
		vals := make([]float64, len(subs))
		for i, s := range subs {
			vals[i] = s.Normalized[key]
		}
		out.Normalized[key] = median(vals)
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setBenchtime sets the iteration budget testing.Benchmark uses.
func setBenchtime(v string) {
	if err := flag.Set("test.benchtime", v); err != nil {
		fatal(err)
	}
}

func substrateSnapshot() *snapshot {
	norm := map[string]float64{}
	measure := func(name string, fn func(b *testing.B)) {
		// Size a round at roundTime, then time rounds of exactly that
		// many iterations.
		setBenchtime(roundTime)
		setBenchtime(fmt.Sprintf("%dx", testing.Benchmark(fn).N))
		ratios := make([]float64, measureRounds)
		for i := range ratios {
			calib := median(calibrate())
			res := testing.Benchmark(fn)
			ratios[i] = float64(res.T.Nanoseconds()) / float64(res.N) / calib
		}
		norm[name+"_norm"] = median(ratios)
	}

	r := rng.New(1)
	x := tensor.Randn(16, 64, 1, r)
	w := tensor.Randn(64, 64, 1, r)
	measure("gemm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMul(x, w)
		}
	})
	measure("gemm_nt", func(b *testing.B) {
		wt := w.Transpose()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.MatMulNT(x, wt)
		}
	})

	m := transformer.New(transformer.Family()["base"], 1)
	tokens := []int{0, 5, 9, 13, 2, 7, 11, 3, 8, 1, 6, 4}
	measure("forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Logits(tokens)
		}
	})
	measure("train_step", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.LossAndBackward(tokens, i%2)
			m.ZeroGrads()
		}
	})

	cfg := transformer.Family()["large"]
	prof := gpusim.Profile{Source: "hf", Framework: gpusim.PyTorch, Seed: 3}
	measure("trace_sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gpusim.SimulateTransformer(cfg, nil, prof, gpusim.Options{})
		}
	})
	tr := gpusim.SimulateTransformer(cfg, nil, prof, gpusim.Options{})
	measure("trace_render", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			traceimg.Render(tr, 64)
		}
	})

	// Level-1 CNN training dominates a cold small-scale run: its hot
	// conv layer on one 16-image batch, and one whole classifier step,
	// both serial so the ratios track the kernels, not the core count.
	conv, cx, cgrad := cnnFixture()
	measure("conv_forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			conv.Forward(cx, true)
		}
	})
	conv.Forward(cx, true)
	measure("conv_backward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			conv.Backward(cgrad)
		}
	})
	clf, batch := cnnBatch()
	measure("cnn_train_step", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clf.Train(batch, fingerprint.TrainConfig{Epochs: 1, LR: 0.002, Seed: uint64(i)})
		}
	})

	ecfg := extract.DefaultConfig()
	victimW := float32(0.01908)
	read := func(bit int) int { return ieee754.Bit(victimW, bit) }
	measure("extract_weight", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ecfg.ExtractWeight(0.018, read)
		}
	})

	// Telemetry instruments ride the innermost attack loops (counters on
	// every oracle read, progress credits on every tensor boundary), so
	// their per-call cost is gated alongside the substrate math.
	ctr := obs.New().Counter("bench.counter")
	measure("obs_counter_add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctr.Add(1)
		}
	})
	hist := obs.New().Histogram("bench.hist")
	measure("obs_histogram_observe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hist.Observe(float64(i % 1000))
		}
	})
	tracker := obs.NewProgress()
	item := tracker.Item("victim")
	measure("obs_progress_complete", func(b *testing.B) {
		item.SetPlanned(int64(b.N) + 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			item.Complete(int64(i)+1, "tensor")
		}
	})

	// Zoo cold start: the monolithic cache decodes every tensor up front;
	// the store reads a manifest and hands back lazy handles. The pair of
	// gated ratios keeps the startup-latency win honest over time.
	zcfg := zoo.SmallBuildConfig()
	zcfg.NumPretrained = 4
	zcfg.NumFineTuned = 8
	zcfg.PretrainExamples = 20
	zcfg.PretrainEpochs = 1
	zcfg.FineTuneExamples = 20
	zcfg.FineTuneEpochs = 1
	tmp, err := os.MkdirTemp("", "benchsnap-zoo-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)
	cachePath := filepath.Join(tmp, "zoo.gob.gz")
	if err := zoo.MustBuild(zcfg).SaveFile(cachePath); err != nil {
		fatal(err)
	}
	storeDir := filepath.Join(tmp, "store")
	if _, _, err := zoo.BuildOrOpenStore(context.Background(), zcfg, storeDir, ""); err != nil {
		fatal(err)
	}
	measure("zoo_cache_load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := zoo.LoadFile(cachePath); err != nil {
				b.Fatal(err)
			}
		}
	})
	measure("zoo_store_open", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := zoo.BuildOrOpenStore(context.Background(), zcfg, storeDir, ""); err != nil {
				b.Fatal(err)
			}
		}
	})

	return &snapshot{
		Version:    1,
		Kind:       "substrate",
		Note:       fmt.Sprintf("hot-path timings, each the median over short runs of ns/op divided by an adjacent scalar-triad calibration (recorded on %s/%s); gated within a relative tolerance", runtime.GOOS, runtime.GOARCH),
		Normalized: norm,
	}
}

// cnnTraces simulates n distinct kernel traces for CNN inputs.
func cnnTraces(n int) []*gpusim.Trace {
	cfg := transformer.Family()["base"]
	out := make([]*gpusim.Trace, n)
	for i := range out {
		out[i] = gpusim.SimulateTransformer(cfg, nil,
			gpusim.Profile{Source: "hf", Framework: gpusim.PyTorch, Seed: uint64(i + 1)}, gpusim.Options{})
	}
	return out
}

// cnnFixture mirrors bench_test.go's BenchmarkConvForward/Backward set-up:
// the classifier's first conv layer (1→6, k5, 64²), 16 rendered trace
// images, and the mostly-zero gradient that reaches the layer back
// through its ReLU and 4×4 max-pool.
func cnnFixture() (conv *nn.Conv2D, x, grad *tensor.Matrix) {
	r := rng.New(1)
	conv = nn.NewConv2D(1, 6, 5, 64, 64, r)
	x = tensor.New(16, 64*64)
	for i, t := range cnnTraces(16) {
		copy(x.Row(i), traceimg.Render(t, 64).Pix)
	}
	relu, pool := nn.NewReLU(), nn.NewMaxPool2D(6, 60, 60, 4)
	pool.Forward(relu.Forward(conv.Forward(x, true), true), true)
	g := tensor.Randn(16, pool.OutSize(), 1, r)
	grad = relu.Backward(pool.Backward(g)).Clone()
	return conv, x, grad
}

// cnnBatch mirrors BenchmarkCNNTrainStep's set-up: a serial 64-px
// classifier and one 16-sample batch.
func cnnBatch() (*fingerprint.Classifier, *fingerprint.Dataset) {
	classes := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	d := &fingerprint.Dataset{Classes: classes}
	for i, t := range cnnTraces(16) {
		d.Samples = append(d.Samples, fingerprint.Sample{Trace: t, Label: i % len(classes)})
	}
	clf := fingerprint.NewClassifier(64, classes, 1)
	clf.Workers = 1
	return clf, d
}
