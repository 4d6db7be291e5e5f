// Package fingerprint implements the paper's pre-trained model extractor
// (§5.4): a CNN image classifier over rendered time-series kernel
// execution traces. Trace images of both pre-trained models and their
// fine-tuned descendants are labeled with the *pre-trained* model name;
// because fine-tuned models inherit their release's execution fingerprint,
// the classifier recovers the pre-trained model of an unseen black-box
// victim.
package fingerprint

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"decepticon/internal/gpusim"
	"decepticon/internal/nn"
	"decepticon/internal/obs"
	"decepticon/internal/parallel"
	"decepticon/internal/rng"
	"decepticon/internal/tensor"
	"decepticon/internal/traceimg"
	"decepticon/internal/zoo"
)

// Sample is one labeled trace measurement.
type Sample struct {
	Trace *gpusim.Trace
	// Label is the index into Dataset.Classes of the trace's pre-trained
	// model.
	Label int
	// FromModel is the model the trace was measured from (a pre-trained
	// model or one of its fine-tuned descendants).
	FromModel string
}

// Dataset is a labeled trace corpus.
type Dataset struct {
	Samples []Sample
	Classes []string // pre-trained model names
}

// classIndex builds the class list from a zoo.
func classIndex(z *zoo.Zoo) ([]string, map[string]int) {
	classes := make([]string, len(z.Pretrained))
	idx := make(map[string]int, len(classes))
	for i, p := range z.Pretrained {
		classes[i] = p.Name
		idx[p.Name] = i
	}
	return classes, idx
}

// BuildDataset measures samplesPerModel jittered traces of every
// pre-trained and fine-tuned model in the zoo, labeled with the
// pre-trained model name (§5.4.2: "we labeled each graph image with each
// model's pre-trained model name"). Measurements run on workers
// goroutines (<= 0 selects GOMAXPROCS); each sample derives its
// measurement seed from the model name and sample index, so the dataset
// is identical for any worker count.
func BuildDataset(z *zoo.Zoo, samplesPerModel int, seed uint64, workers int) *Dataset {
	classes, idx := classIndex(z)
	d := &Dataset{Classes: classes}

	type unit struct {
		name, preName string
		trace         func(gpusim.Options) *gpusim.Trace
		release       func()
	}
	units := make([]unit, 0, len(z.Pretrained)+len(z.FineTuned))
	for _, p := range z.Pretrained {
		units = append(units, unit{p.Name, p.Name, p.Trace, p.Release})
	}
	for _, f := range z.FineTuned {
		units = append(units, unit{f.Name, f.Pretrained.Name, f.Trace, f.Release})
	}

	perModel := parallel.Map(len(units), workers, func(i int) []Sample {
		u := units[i]
		out := make([]Sample, samplesPerModel)
		for s := 0; s < samplesPerModel; s++ {
			opt := gpusim.Options{
				MeasureSeed:     rng.Seed("measure", u.name, fmt.Sprint(s)) ^ seed,
				JitterMagnitude: 0.3,
			}
			out[s] = Sample{Trace: u.trace(opt), Label: idx[u.preName], FromModel: u.name}
		}
		// Tracing a fine-tuned victim loads its tensors (head-pruning
		// masks live there); drop store-backed ones as soon as the unit
		// is measured so dataset construction over a 10× lazy zoo keeps
		// only one model's working set per worker. No-op for resident
		// populations.
		u.release()
		return out
	})
	for _, samples := range perModel {
		d.Samples = append(d.Samples, samples...)
	}
	return d
}

// AugmentNoise appends copies of every sample with count kernels
// perturbed by ±magnitude µs each — train-time noise augmentation, which
// an attacker gets for free by keeping noisy measurements instead of
// discarding them. It is what makes the CNN noise-tolerant in practice.
// Perturbation runs on workers goroutines (<= 0 selects GOMAXPROCS); the
// per-sample perturbation seed fixes the appended order and content
// regardless of worker count.
func (d *Dataset) AugmentNoise(copies, count int, magnitude float64, seed uint64, workers int) {
	orig := d.Samples
	noisy := parallel.Map(copies*len(orig), workers, func(j int) Sample {
		c, i := j/len(orig), j%len(orig)
		s := orig[i]
		t := s.Trace.Clone()
		t.PerturbKernels(count, magnitude, seed^uint64(c*1000003+i))
		return Sample{Trace: t, Label: s.Label, FromModel: s.FromModel}
	})
	d.Samples = append(d.Samples, noisy...)
}

// Split partitions the dataset into train and test portions (the paper
// uses 80/20), shuffled deterministically.
func (d *Dataset) Split(trainFrac float64, seed uint64) (train, test *Dataset) {
	r := rng.New(seed)
	perm := r.Perm(len(d.Samples))
	cut := int(float64(len(perm)) * trainFrac)
	train = &Dataset{Classes: d.Classes}
	test = &Dataset{Classes: d.Classes}
	for i, p := range perm {
		if i < cut {
			train.Samples = append(train.Samples, d.Samples[p])
		} else {
			test.Samples = append(test.Samples, d.Samples[p])
		}
	}
	return train, test
}

// Classifier is the CNN model extractor. The architecture follows §5.4.2
// (two conv+pool stages, three fully connected layers), adapted to the
// reproduction's image resolution (see DESIGN.md §2).
type Classifier struct {
	ImgSize int
	Classes []string
	// Workers bounds the goroutines used for trace preprocessing, each
	// training step's conv/pool/ReLU passes, and batch evaluation; <= 0
	// selects GOMAXPROCS. It is a runtime knob, not part of the model:
	// Save/LoadClassifier do not persist it, and results (trained weights
	// included) are bit-identical for any value.
	Workers int
	// Obs, when set, receives the level-1 accounting: train/eval wall
	// time (fingerprint.train_seconds, fingerprint.eval_seconds) and CNN
	// forward counts (fingerprint.forwards). Like Workers it is a runtime
	// knob and is not persisted.
	Obs *obs.Registry
	net *nn.Sequential
}

// NewClassifier builds an untrained classifier for imgSize×imgSize
// grayscale trace images. imgSize must be 32 or 64.
func NewClassifier(imgSize int, classes []string, seed uint64) *Classifier {
	r := rng.New(seed)
	var layers []nn.Layer
	switch imgSize {
	case 64:
		conv1 := nn.NewConv2D(1, 6, 5, 64, 64, r.Derive("c1"))  // -> 6x60x60
		pool1 := nn.NewMaxPool2D(6, 60, 60, 4)                  // -> 6x15x15
		conv2 := nn.NewConv2D(6, 16, 4, 15, 15, r.Derive("c2")) // -> 16x12x12
		pool2 := nn.NewMaxPool2D(16, 12, 12, 4)                 // -> 16x3x3
		layers = []nn.Layer{
			conv1, nn.NewReLU(), pool1,
			conv2, nn.NewReLU(), pool2,
			nn.NewDense(16*3*3, 120, r.Derive("f1")), nn.NewReLU(),
			nn.NewDense(120, 84, r.Derive("f2")), nn.NewReLU(),
			nn.NewDense(84, len(classes), r.Derive("f3")),
		}
	case 32:
		conv1 := nn.NewConv2D(1, 6, 5, 32, 32, r.Derive("c1")) // -> 6x28x28
		pool1 := nn.NewMaxPool2D(6, 28, 28, 4)                 // -> 6x7x7
		conv2 := nn.NewConv2D(6, 16, 4, 7, 7, r.Derive("c2"))  // -> 16x4x4
		pool2 := nn.NewMaxPool2D(16, 4, 4, 2)                  // -> 16x2x2
		layers = []nn.Layer{
			conv1, nn.NewReLU(), pool1,
			conv2, nn.NewReLU(), pool2,
			nn.NewDense(16*2*2, 84, r.Derive("f2")), nn.NewReLU(),
			nn.NewDense(84, len(classes), r.Derive("f3")),
		}
	default:
		panic(fmt.Sprintf("fingerprint: unsupported image size %d (use 32 or 64)", imgSize))
	}
	return &Classifier{ImgSize: imgSize, Classes: classes, net: nn.NewSequential(layers...)}
}

// preprocess converts a trace to the classifier's input row: memcpy
// filtering (bus transfers are a separate event type), XLA-region
// stripping (§5.4.3), then rendering.
func (c *Classifier) preprocess(t *gpusim.Trace) []float32 {
	return traceimg.Render(traceimg.StripXLA(traceimg.StripMemcpy(t)), c.ImgSize).Pix
}

// matrixOf renders a dataset into an input matrix plus labels. Rendering
// is pure per sample and each worker writes a disjoint row, so the
// matrix is independent of the worker count.
func (c *Classifier) matrixOf(d *Dataset) (*tensor.Matrix, []int) {
	x := tensor.New(len(d.Samples), c.ImgSize*c.ImgSize)
	labels := make([]int, len(d.Samples))
	parallel.ForEach(len(d.Samples), c.Workers, func(i int) {
		s := d.Samples[i]
		copy(x.Row(i), c.preprocess(s.Trace))
		labels[i] = s.Label
	})
	return x, labels
}

// TrainConfig controls classifier training. The paper trains with LR 0.001
// for 10 epochs.
type TrainConfig struct {
	Epochs int
	LR     float64
	Seed   uint64
}

// Train fits the classifier on the dataset and returns the final mean loss.
func (c *Classifier) Train(d *Dataset, cfg TrainConfig) float64 {
	return c.TrainContext(context.Background(), d, cfg)
}

// TrainContext is Train with cooperative cancellation: the context is
// polled before each epoch, so a cancelled training stops at the next
// epoch boundary and returns the loss of the last completed epoch.
// Callers that need to distinguish a full training from an aborted one
// check ctx.Err() afterwards.
func (c *Classifier) TrainContext(ctx context.Context, d *Dataset, cfg TrainConfig) float64 {
	return c.train(ctx, d, cfg, c.Obs.Tracer().Track(obs.PidPipeline, 0, "pipeline"))
}

// train is TrainContext recording its span on the given trace lane.
// Classifiers trained concurrently must each get their own lane: spans
// interleaved on a shared lane would make the trace file depend on
// scheduling.
func (c *Classifier) train(ctx context.Context, d *Dataset, cfg TrainConfig, lane *obs.Track) float64 {
	defer c.Obs.StartSpan("fingerprint.train_seconds").End()
	c.Obs.Counter("fingerprint.train_samples").Add(int64(len(d.Samples)))
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.LR == 0 {
		cfg.LR = 0.001
	}
	// The lane clock advances by epochs × samples, the deterministic unit
	// of level-1 training work.
	sp := lane.Begin("fingerprint.train",
		obs.A("samples", len(d.Samples)), obs.A("epochs", cfg.Epochs))
	defer sp.End()
	defer lane.Advance(int64(cfg.Epochs * len(d.Samples)))
	x, labels := c.matrixOf(d)
	loss := c.net.Fit(x, labels, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: 16,
		Optimizer: nn.NewAdamW(cfg.LR, 0),
		Seed:      cfg.Seed,
		Stop:      func() bool { return ctx.Err() != nil },
		Workers:   c.Workers,
	})
	c.Obs.Log().Info("fingerprint classifier trained",
		"samples", len(d.Samples), "epochs", cfg.Epochs, "loss", loss)
	return loss
}

// Predict returns the pre-trained model name for a trace.
func (c *Classifier) Predict(t *gpusim.Trace) string {
	return c.Classes[c.predictIdx(t)]
}

func (c *Classifier) predictIdx(t *gpusim.Trace) int {
	c.Obs.Counter("fingerprint.forwards").Inc()
	x := tensor.FromSlice(1, c.ImgSize*c.ImgSize, c.preprocess(t))
	return c.net.Predict(x)[0]
}

// Accuracy returns classification accuracy over a dataset. Samples are
// classified concurrently (eval-mode forwards do not touch the network's
// training caches); the correct count aggregates after the join.
func (c *Classifier) Accuracy(d *Dataset) float64 {
	acc, _ := c.AccuracyContext(context.Background(), d)
	return acc
}

// AccuracyContext is Accuracy with cooperative cancellation: each sample
// checks the context before classifying, and a cancelled evaluation
// returns ctx's error instead of a partial accuracy.
func (c *Classifier) AccuracyContext(ctx context.Context, d *Dataset) (float64, error) {
	defer c.Obs.StartSpan("fingerprint.eval_seconds").End()
	if len(d.Samples) == 0 {
		return 0, nil
	}
	hits, err := parallel.MapErrCtx(ctx, len(d.Samples), c.Workers, func(ctx context.Context, i int) (bool, error) {
		return c.predictIdx(d.Samples[i].Trace) == d.Samples[i].Label, nil
	})
	if err != nil {
		return 0, err
	}
	correct := 0
	for _, h := range hits {
		if h {
			correct++
		}
	}
	acc := float64(correct) / float64(len(d.Samples))
	c.Obs.Log().Debug("fingerprint accuracy evaluated",
		"samples", len(d.Samples), "accuracy", acc)
	return acc, nil
}

// NoiseAccuracy evaluates the Fig 14 noise sweeps: every test trace gets
// count kernels perturbed by ±magnitude µs before classification. The
// perturbation seed is a function of the sample index, so the sweep is
// identical for any worker count.
func (c *Classifier) NoiseAccuracy(d *Dataset, count int, magnitude float64, seed uint64) float64 {
	acc, _ := c.NoiseAccuracyContext(context.Background(), d, count, magnitude, seed)
	return acc
}

// NoiseAccuracyContext is NoiseAccuracy with cooperative cancellation,
// under the same contract as AccuracyContext.
func (c *Classifier) NoiseAccuracyContext(ctx context.Context, d *Dataset, count int, magnitude float64, seed uint64) (float64, error) {
	defer c.Obs.StartSpan("fingerprint.eval_seconds").End()
	if len(d.Samples) == 0 {
		return 0, nil
	}
	hits, err := parallel.MapErrCtx(ctx, len(d.Samples), c.Workers, func(ctx context.Context, i int) (bool, error) {
		s := d.Samples[i]
		t := s.Trace.Clone()
		t.PerturbKernels(count, magnitude, seed^uint64(i))
		return c.predictIdx(t) == s.Label, nil
	})
	if err != nil {
		return 0, err
	}
	correct := 0
	for _, h := range hits {
		if h {
			correct++
		}
	}
	acc := float64(correct) / float64(len(d.Samples))
	c.Obs.Log().Debug("fingerprint noise accuracy evaluated",
		"samples", len(d.Samples), "kernels", count, "magnitude", magnitude,
		"accuracy", acc)
	return acc, nil
}

// CentroidBaseline is the ablation comparator for the CNN: a nearest-
// centroid classifier over the same images. It shows why the paper chose a
// noise-tolerant CNN (DESIGN.md §5).
type CentroidBaseline struct {
	ImgSize   int
	Classes   []string
	centroids []*tensor.Matrix
}

// NewCentroidBaseline fits per-class mean images.
func NewCentroidBaseline(d *Dataset, imgSize int) *CentroidBaseline {
	b := &CentroidBaseline{ImgSize: imgSize, Classes: d.Classes}
	counts := make([]int, len(d.Classes))
	b.centroids = make([]*tensor.Matrix, len(d.Classes))
	for i := range b.centroids {
		b.centroids[i] = tensor.New(1, imgSize*imgSize)
	}
	for _, s := range d.Samples {
		pix := traceimg.Render(traceimg.StripXLA(traceimg.StripMemcpy(s.Trace)), imgSize).Pix
		row := b.centroids[s.Label].Data
		for j, v := range pix {
			row[j] += v
		}
		counts[s.Label]++
	}
	for i, n := range counts {
		if n > 0 {
			b.centroids[i].Scale(1 / float32(n))
		}
	}
	return b
}

// Predict returns the nearest-centroid class name for a trace.
func (b *CentroidBaseline) Predict(t *gpusim.Trace) string {
	pix := traceimg.Render(traceimg.StripXLA(traceimg.StripMemcpy(t)), b.ImgSize).Pix
	best, bestDist := 0, -1.0
	for i, c := range b.centroids {
		var dist float64
		for j, v := range pix {
			dv := float64(v - c.Data[j])
			dist += dv * dv
		}
		if bestDist < 0 || dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return b.Classes[best]
}

// Accuracy returns the baseline's accuracy over a dataset.
func (b *CentroidBaseline) Accuracy(d *Dataset) float64 {
	if len(d.Samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range d.Samples {
		if b.Predict(s.Trace) == d.Classes[s.Label] {
			correct++
		}
	}
	return float64(correct) / float64(len(d.Samples))
}

// classifierExport is the gob wire format of a trained classifier.
type classifierExport struct {
	ImgSize int
	Classes []string
	Tensors [][]float32
}

// Save writes the trained classifier to w. The architecture is a pure
// function of (ImgSize, len(Classes)), so only the weights travel.
func (c *Classifier) Save(w io.Writer) error {
	exp := classifierExport{ImgSize: c.ImgSize, Classes: c.Classes}
	for _, p := range c.net.Params() {
		exp.Tensors = append(exp.Tensors, p.Data)
	}
	if err := gob.NewEncoder(w).Encode(exp); err != nil {
		return fmt.Errorf("fingerprint: save: %w", err)
	}
	return nil
}

// LoadClassifier reads a classifier previously written by Save.
func LoadClassifier(r io.Reader) (*Classifier, error) {
	var exp classifierExport
	if err := gob.NewDecoder(r).Decode(&exp); err != nil {
		return nil, fmt.Errorf("fingerprint: load: %w", err)
	}
	c := NewClassifier(exp.ImgSize, exp.Classes, 0)
	params := c.net.Params()
	if len(params) != len(exp.Tensors) {
		return nil, fmt.Errorf("fingerprint: load: %d tensors, want %d", len(exp.Tensors), len(params))
	}
	for i, p := range params {
		if len(exp.Tensors[i]) != len(p.Data) {
			return nil, fmt.Errorf("fingerprint: load: tensor %d has %d values, want %d",
				i, len(exp.Tensors[i]), len(p.Data))
		}
		copy(p.Data, exp.Tensors[i])
	}
	return c, nil
}

// ConfusionPairs returns the distinct (true, predicted) class-name pairs of
// the classifier's test errors, sorted — useful for verifying that the
// remaining confusion sits inside the profile-ambiguity clusters.
func (c *Classifier) ConfusionPairs(d *Dataset) []string {
	set := map[string]struct{}{}
	for _, s := range d.Samples {
		got := c.predictIdx(s.Trace)
		if got != s.Label {
			set[d.Classes[s.Label]+" -> "+c.Classes[got]] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
