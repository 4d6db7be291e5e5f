package decepticon

// The benchmark harness regenerates every table and figure of the paper
// (one Benchmark per experiment id, over a shared reduced zoo) and
// measures the substrate hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// The one-time zoo + classifier construction happens inside getBenchEnv
// under sync.Once and is excluded from every timing: each benchmark
// resets the timer after setup, so every reported time is the measured
// operation's own cost regardless of which benchmark runs first.
//
// cmd/benchsnap drives a curated subset of these measurements to produce
// the committed BENCH_*.json snapshots that `make bench-gate` compares
// against (see README.md).

import (
	"context"
	"io"
	"strconv"
	"sync"
	"testing"

	"decepticon/internal/adversarial"
	"decepticon/internal/core"
	"decepticon/internal/experiments"
	"decepticon/internal/extract"
	"decepticon/internal/fingerprint"
	"decepticon/internal/gpusim"
	"decepticon/internal/ieee754"
	"decepticon/internal/nn"
	"decepticon/internal/obs"
	"decepticon/internal/rng"
	"decepticon/internal/sidechannel"
	"decepticon/internal/tensor"
	"decepticon/internal/traceimg"
	"decepticon/internal/transformer"
	"decepticon/internal/zoo"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchZoo  *zoo.Zoo
)

func getBenchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv = experiments.NewEnv(experiments.ScaleSmall)
		cfg := benchEnv.ZooConfig()
		cfg.NumPretrained = 8
		cfg.NumFineTuned = 12
		benchZoo = zoo.MustBuild(cfg)
		benchEnv.UseZoo(benchZoo)
	})
	return benchEnv
}

func benchExperiment(b *testing.B, id string) {
	env := getBenchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.Run(id, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- one benchmark per paper table/figure ----

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkAlg1(b *testing.B)   { benchExperiment(b, "alg1") }

// §8 "Discussions" extensions.
func BenchmarkPruningRecovery(b *testing.B) { benchExperiment(b, "pruning") }
func BenchmarkQuantFormats(b *testing.B)    { benchExperiment(b, "quant") }
func BenchmarkOracleNoise(b *testing.B)     { benchExperiment(b, "noise") }
func BenchmarkDefense(b *testing.B)         { benchExperiment(b, "defense") }

// ---- ablations (DESIGN.md §5) ----

// BenchmarkAblationBitBudget sweeps the per-weight bit budget and reports
// the clone agreement per setting as metrics.
func BenchmarkAblationBitBudget(b *testing.B) {
	getBenchEnv(b)
	victim := benchZoo.FineTuned[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bits := range []int{1, 2, 4} {
			cfg := extract.DefaultConfig()
			cfg.MaxBitsPerWeight = bits
			ex := &extract.Extractor{
				Pre:    victim.Pretrained.Model(),
				Oracle: newOracle(victim),
				Cfg:    cfg,
			}
			clone, st, err := ex.Run(victim.Task.Labels, victim.Dev)
			if err != nil {
				b.Fatal(err)
			}
			match := matchRate(victim, clone)
			b.ReportMetric(match, "match@"+strconv.Itoa(bits)+"bit")
			b.ReportMetric(float64(st.BitsChecked), "bits@"+strconv.Itoa(bits)+"bit")
		}
	}
}

// BenchmarkAblationSkipThreshold sweeps Algorithm 1's step-1 threshold.
func BenchmarkAblationSkipThreshold(b *testing.B) {
	getBenchEnv(b)
	victim := benchZoo.FineTuned[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, thr := range []float64{0.0001, 0.001, 0.01} {
			cfg := extract.DefaultConfig()
			cfg.SkipThreshold = thr
			ex := &extract.Extractor{
				Pre:    victim.Pretrained.Model(),
				Oracle: newOracle(victim),
				Cfg:    cfg,
			}
			clone, st, err := ex.Run(victim.Task.Labels, victim.Dev)
			if err != nil {
				b.Fatal(err)
			}
			tag := strconv.FormatFloat(thr, 'g', -1, 64)
			b.ReportMetric(matchRate(victim, clone), "match@"+tag)
			b.ReportMetric(st.SkipRate(), "skip@"+tag)
		}
	}
}

// BenchmarkAblationImageSize compares fingerprint accuracy at 32 vs 64 px.
func BenchmarkAblationImageSize(b *testing.B) {
	getBenchEnv(b)
	d := fingerprint.BuildDataset(benchZoo, 4, 77, 0)
	train, test := d.Split(0.8, 78)
	// The dataset build and split above are setup, not the measured
	// ablation — without the reset they would be billed to iteration 1.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, size := range []int{32, 64} {
			clf := fingerprint.NewClassifier(size, d.Classes, 79)
			clf.Train(train, fingerprint.TrainConfig{Epochs: 60, LR: 0.002, Seed: 80})
			b.ReportMetric(clf.Accuracy(test), "acc@"+strconv.Itoa(size)+"px")
		}
	}
}

// ---- extraction scheduler (DESIGN.md §12) ----

// benchExtraction runs one full extraction per iteration — index-ordered
// baseline or information-ordered scheduler — on a faulted channel at
// the voted operating point (ReadRepeats = 3). The reported hammer-round
// and physical-read metrics are deterministic counts from the simulated
// channel, so they regress exactly, not statistically.
func benchExtraction(b *testing.B, scheduled bool) {
	getBenchEnv(b)
	victim := benchZoo.FineTuned[0]
	plan := &sidechannel.FaultPlan{Seed: 9, TransientRate: 0.02, StuckRate: 0.0002}
	cfg := extract.DefaultConfig()
	cfg.ReadRepeats = 3
	cfg.StopMatchRate = 2 // full extraction: compare complete read schedules
	if scheduled {
		cfg.Schedule = extract.DefaultSchedulerConfig()
	}
	var st *extract.Stats
	var clone *transformer.Model
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := &extract.Extractor{
			Pre:    victim.Pretrained.Model(),
			Oracle: newOracleWithPlan(victim, plan),
			Cfg:    cfg,
		}
		var err error
		clone, st, err = ex.Run(victim.Task.Labels, victim.Dev)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.PhysicalBitReads), "phys-reads")
	b.ReportMetric(float64(st.HammerRounds()), "hammer-rounds")
	b.ReportMetric(matchRate(victim, clone), "match")
	if scheduled {
		b.ReportMetric(st.MeanVoteWidth(), "vote-width")
	}
}

func BenchmarkExtractionBaseline(b *testing.B)  { benchExtraction(b, false) }
func BenchmarkExtractionScheduled(b *testing.B) { benchExtraction(b, true) }

// ---- parallel execution layer ----

// benchZooBuildWorkers measures zoo construction at a fixed worker
// count. Compare Workers1 vs Workers4 to see the pool's speedup; on a
// multi-core machine the 4-worker build should be >= 1.5x faster (the
// population itself is identical for any value — see
// internal/zoo TestBuildWorkerCountInvariance).
func benchZooBuildWorkers(b *testing.B, workers int) {
	cfg := zoo.SmallBuildConfig()
	cfg.NumPretrained = 4
	cfg.NumFineTuned = 4
	cfg.PretrainExamples = 60
	cfg.FineTuneExamples = 60
	cfg.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := zoo.Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZooBuildWorkers1(b *testing.B) { benchZooBuildWorkers(b, 1) }
func BenchmarkZooBuildWorkers4(b *testing.B) { benchZooBuildWorkers(b, 4) }

// benchColdStartCfg is the population the cold-start benchmark
// materializes: trace-grade budgets, so the measured cost is the
// load/open path, not training quality.
func benchColdStartCfg() zoo.BuildConfig {
	cfg := zoo.SmallBuildConfig()
	cfg.NumPretrained = 4
	cfg.NumFineTuned = 8
	cfg.PretrainExamples = 20
	cfg.PretrainEpochs = 1
	cfg.FineTuneExamples = 20
	cfg.FineTuneEpochs = 1
	return cfg
}

// BenchmarkZooStoreOpen measures the store's warm cold-start: a
// manifest read plus object verification, with every tensor left on
// disk behind a lazy handle.
func BenchmarkZooStoreOpen(b *testing.B) {
	cfg := benchColdStartCfg()
	dir := b.TempDir()
	if _, _, err := zoo.BuildOrOpenStore(context.Background(), cfg, dir, ""); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := zoo.BuildOrOpenStore(context.Background(), cfg, dir, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignWorkers measures a RunAll campaign over every bench
// victim at 1 vs 4 workers.
func benchCampaignWorkers(b *testing.B, workers int) {
	env := getBenchEnv(b)
	atk := env.Attack()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atk.RunAll(benchZoo.FineTuned, core.RunOptions{MeasureSeed: 5, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampaignWorkers1(b *testing.B) { benchCampaignWorkers(b, 1) }
func BenchmarkCampaignWorkers4(b *testing.B) { benchCampaignWorkers(b, 4) }

// ---- substrate micro-benchmarks ----

func BenchmarkGEMM(b *testing.B) {
	r := rng.New(1)
	x := tensor.Randn(16, 64, 1, r)
	w := tensor.Randn(64, 64, 1, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, w)
	}
}

func BenchmarkTransformerForward(b *testing.B) {
	m := transformer.New(transformer.Family()["base"], 1)
	tokens := []int{0, 5, 9, 13, 2, 7, 11, 3, 8, 1, 6, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Logits(tokens)
	}
}

func BenchmarkTransformerTrainStep(b *testing.B) {
	m := transformer.New(transformer.Family()["base"], 1)
	tokens := []int{0, 5, 9, 13, 2, 7, 11, 3, 8, 1, 6, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.LossAndBackward(tokens, i%2)
		m.ZeroGrads()
	}
}

// ---- level-1 CNN kernels ----

// The fingerprint classifier's training dominates a cold small-scale
// run. These measure its hot layer on one 16-image batch and one whole
// classifier step, serially (a layer outside Fit, or Workers=1), so the
// numbers track the kernels rather than the core count.

// benchTraces simulates n distinct kernel traces for CNN inputs.
func benchTraces(n int) []*gpusim.Trace {
	cfg := transformer.Family()["base"]
	out := make([]*gpusim.Trace, n)
	for i := range out {
		out[i] = gpusim.SimulateTransformer(cfg, nil,
			gpusim.Profile{Source: "hf", Framework: gpusim.PyTorch, Seed: uint64(i + 1)}, gpusim.Options{})
	}
	return out
}

// benchConv1 returns the classifier's first conv layer (1→6, k5, 64²),
// a batch of 16 rendered trace images, and the gradient that reaches
// the layer back through its ReLU and 4×4 max-pool — mostly zeros, as
// in training.
func benchConv1() (conv *nn.Conv2D, x, grad *tensor.Matrix) {
	r := rng.New(1)
	conv = nn.NewConv2D(1, 6, 5, 64, 64, r)
	x = tensor.New(16, 64*64)
	for i, t := range benchTraces(16) {
		copy(x.Row(i), traceimg.Render(t, 64).Pix)
	}
	relu, pool := nn.NewReLU(), nn.NewMaxPool2D(6, 60, 60, 4)
	pool.Forward(relu.Forward(conv.Forward(x, true), true), true)
	g := tensor.Randn(16, pool.OutSize(), 1, r)
	grad = relu.Backward(pool.Backward(g)).Clone()
	return conv, x, grad
}

func BenchmarkConvForward(b *testing.B) {
	conv, x, _ := benchConv1()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, true)
	}
}

func BenchmarkConvBackward(b *testing.B) {
	conv, x, grad := benchConv1()
	conv.Forward(x, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Backward(grad)
	}
}

// benchCNNBatch is one 16-sample batch for the 64-px classifier.
func benchCNNBatch() (*fingerprint.Classifier, *fingerprint.Dataset) {
	classes := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	d := &fingerprint.Dataset{Classes: classes}
	for i, t := range benchTraces(16) {
		d.Samples = append(d.Samples, fingerprint.Sample{Trace: t, Label: i % len(classes)})
	}
	clf := fingerprint.NewClassifier(64, classes, 1)
	clf.Workers = 1
	return clf, d
}

func BenchmarkCNNTrainStep(b *testing.B) {
	clf, d := benchCNNBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf.Train(d, fingerprint.TrainConfig{Epochs: 1, LR: 0.002, Seed: uint64(i)})
	}
}

func BenchmarkTraceSimulation(b *testing.B) {
	cfg := transformer.Family()["large"]
	prof := gpusim.Profile{Source: "hf", Framework: gpusim.PyTorch, Seed: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gpusim.SimulateTransformer(cfg, nil, prof, gpusim.Options{})
	}
}

func BenchmarkTraceRender(b *testing.B) {
	cfg := transformer.Family()["large"]
	prof := gpusim.Profile{Source: "hf", Framework: gpusim.PyTorch, Seed: 3}
	t := gpusim.SimulateTransformer(cfg, nil, prof, gpusim.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traceimg.Render(t, 64)
	}
}

func BenchmarkLayerCountDetection(b *testing.B) {
	cfg := transformer.Family()["large"]
	prof := gpusim.Profile{Source: "hf", Framework: gpusim.PyTorch, Seed: 3}
	t := gpusim.SimulateTransformer(cfg, nil, prof, gpusim.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traceimg.DetectLayerCount(t, 32)
	}
}

func BenchmarkExtractWeight(b *testing.B) {
	cfg := extract.DefaultConfig()
	victim := float32(0.01908)
	read := func(bit int) int { return ieee754.Bit(victim, bit) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.ExtractWeight(0.018, read)
	}
}

// ---- observability hot paths ----

// The telemetry instruments sit on the attack's innermost loops (every
// oracle read bumps counters, every tensor boundary credits progress),
// so their per-call cost must stay in the tens of nanoseconds. benchsnap
// folds these into BENCH_substrate.json so a locking or allocation
// regression fails `make bench-gate`.

func BenchmarkObsCounterAdd(b *testing.B) {
	c := obs.New().Counter("bench.counter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	h := obs.New().Histogram("bench.hist")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
}

func BenchmarkObsProgressComplete(b *testing.B) {
	tr := obs.NewProgress()
	it := tr.Item("victim")
	it.SetPlanned(int64(b.N) + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Complete(int64(i)+1, "tensor")
	}
}

func BenchmarkObsProgressSnapshot(b *testing.B) {
	tr := tenVictimTracker()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Snapshot()
	}
}

// tenVictimTracker builds a tracker shaped like a mid-flight ten-victim
// campaign — what the service snapshots on every progress event.
func tenVictimTracker() *obs.ProgressTracker {
	tr := obs.NewProgress()
	tr.SetTotalItems(10)
	for i := 0; i < 10; i++ {
		it := tr.Item("victim-" + strconv.Itoa(i))
		it.SetPlanned(50000)
		it.Complete(int64(i)*5000, "tensor")
		it.SetStage("extract")
	}
	return tr
}

func BenchmarkAdversarialPerturb(b *testing.B) {
	getBenchEnv(b)
	victim := benchZoo.FineTuned[0]
	ex := victim.Dev[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adversarial.Perturb(victim.Model(), ex.Tokens, ex.Label, 2)
	}
}

// ---- helpers ----

func newOracle(victim *zoo.FineTuned) *sidechannel.Oracle {
	return sidechannel.NewOracle(victim.Model())
}

func newOracleWithPlan(victim *zoo.FineTuned, plan *sidechannel.FaultPlan) *sidechannel.Oracle {
	o := sidechannel.NewOracle(victim.Model())
	o.SetFaultPlan(plan.ForVictim(victim.Name))
	return o
}

func matchRate(victim *zoo.FineTuned, clone *transformer.Model) float64 {
	if len(victim.Dev) == 0 {
		// 0/0 would be NaN, which poisons every metric aggregation
		// downstream; an empty dev set simply has no agreement evidence.
		return 0
	}
	vp := victim.Model().Predictions(victim.Dev)
	cp := clone.Predictions(victim.Dev)
	n := 0
	for i := range vp {
		if vp[i] == cp[i] {
			n++
		}
	}
	return float64(n) / float64(len(vp))
}
