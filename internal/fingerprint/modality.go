package fingerprint

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"decepticon/internal/gpusim"
	"decepticon/internal/nn"
	"decepticon/internal/obs"
	"decepticon/internal/parallel"
	"decepticon/internal/rng"
	"decepticon/internal/tensor"
)

// This file makes level-1 identification pluggable across measurement
// modalities. The kernel-trace CNN stays the primary extractor; the two
// derived channels (power/thermal, aggregate counters — see
// gpusim/channels.go) get lightweight dense classifiers over fixed
// feature vectors, and FusePosteriors combines any subset of per-modality
// posteriors into one identification, degrading to the surviving
// modalities when a sensor is jammed or absent.

// Modality names one level-1 measurement channel.
type Modality string

// The supported measurement modalities.
const (
	ModalityTrace    Modality = "trace"    // kernel launch timeline (the paper's channel)
	ModalityPower    Modality = "power"    // power/thermal trace ("Energon")
	ModalityCounters Modality = "counters" // aggregate profiler counters (InferNet)
)

// AllModalities returns every supported modality in canonical order.
func AllModalities() []Modality {
	return []Modality{ModalityTrace, ModalityPower, ModalityCounters}
}

// ParseModalities parses a comma-separated modality list ("trace,power").
// The empty string parses to nil (caller default); unknown names and
// duplicates are rejected.
func ParseModalities(s string) ([]Modality, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	seen := map[Modality]bool{}
	var out []Modality
	for _, part := range strings.Split(s, ",") {
		m := Modality(strings.TrimSpace(part))
		switch m {
		case ModalityTrace, ModalityPower, ModalityCounters:
		default:
			return nil, fmt.Errorf("fingerprint: unknown modality %q (use trace, power, counters)", part)
		}
		if seen[m] {
			return nil, fmt.Errorf("fingerprint: duplicate modality %q", m)
		}
		seen[m] = true
		out = append(out, m)
	}
	return out, nil
}

// Default sensor-noise levels for the derived channels, shared by dataset
// construction and attack-time measurement so train and test
// distributions match: watts of power-meter noise, relative fraction of
// counter jitter.
const (
	DefaultPowerNoiseW  = 1.5
	DefaultCounterNoise = 0.01
)

// Power feature layout: the watts series resampled to powerWattBins, the
// temperature series resampled to powerTempBins, then three scalars
// (duration, peak watts, mean watts).
const (
	powerWattBins = 48
	powerTempBins = 16
	// PowerFeatureDim is the length of a PowerFeatures vector.
	PowerFeatureDim = powerWattBins + powerTempBins + 3
	// CounterFeatureDim is the length of a CounterSet feature vector.
	CounterFeatureDim = 10
)

// resample64 linearly resamples xs to n points (xs empty -> zeros).
func resample64(xs []float64, n int) []float64 {
	out := make([]float64, n)
	if len(xs) == 0 {
		return out
	}
	if len(xs) == 1 {
		for i := range out {
			out[i] = xs[0]
		}
		return out
	}
	for i := 0; i < n; i++ {
		pos := float64(i) * float64(len(xs)-1) / float64(n-1)
		lo := int(pos)
		hi := lo + 1
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		frac := pos - float64(lo)
		out[i] = xs[lo]*(1-frac) + xs[hi]*frac
	}
	return out
}

// PowerFeatures converts a power/thermal trace to the power classifier's
// fixed-length input: the normalized power and temperature profiles on a
// common time base (so releases of different speeds stay comparable) plus
// duration/peak/mean scalars.
func PowerFeatures(p *gpusim.PowerTrace) []float32 {
	watts := make([]float64, len(p.Samples))
	temps := make([]float64, len(p.Samples))
	for i, s := range p.Samples {
		watts[i] = s.Watts
		temps[i] = s.TempC
	}
	out := make([]float32, 0, PowerFeatureDim)
	for _, w := range resample64(watts, powerWattBins) {
		out = append(out, float32(w/gpusim.TDPWatts))
	}
	for _, t := range resample64(temps, powerTempBins) {
		out = append(out, float32((t-gpusim.AmbientC)/60))
	}
	out = append(out,
		float32(p.Duration()/1e4),
		float32(p.PeakWatts()/gpusim.TDPWatts),
		float32(p.MeanWatts()/gpusim.TDPWatts))
	return out
}

// CounterFeatures converts an aggregate counter set to the counter
// classifier's fixed-length input. Counts and times compress through
// log1p (they span orders of magnitude across frameworks); fractions pass
// through.
func CounterFeatures(c *gpusim.CounterSet) []float32 {
	log1p := func(v float64) float32 { return float32(math.Log1p(math.Max(v, 0))) }
	return []float32{
		log1p(c.Execs),
		log1p(c.UniqueKernels),
		log1p(c.TotalTimeUS),
		log1p(c.MeanKernelUS),
		log1p(c.PeakKernelUS),
		log1p(c.GemmTimeUS),
		log1p(c.MemTimeUS),
		log1p(c.MemcpyTimeUS),
		float32(c.ShortKernelFrac),
		float32(c.OccupancyProxy),
	}
}

// channelSeed derives the sensor-noise seed for one sample of one
// modality — a pure function of (modality, sample identity, dataset
// seed), mirroring BuildDataset's measurement-seed convention so derived
// datasets are identical for any worker count.
func channelSeed(m Modality, sampleKey string, index int, seed uint64) uint64 {
	return rng.Seed("channel", string(m), sampleKey, fmt.Sprint(index)) ^ seed
}

// FeaturesOf measures modality m's channel from a kernel schedule and
// featurizes it. The trace modality is not a vector channel and panics —
// it keeps its CNN path.
func FeaturesOf(m Modality, t *gpusim.Trace, opt gpusim.ChannelOptions) []float32 {
	switch m {
	case ModalityPower:
		return PowerFeatures(gpusim.PowerTraceOf(t, opt))
	case ModalityCounters:
		return CounterFeatures(gpusim.CountersOf(t, opt))
	}
	panic(fmt.Sprintf("fingerprint: modality %q has no vector featurizer", m))
}

// DefaultChannelNoise returns the default sensor-noise magnitude for a
// vector modality, in that channel's units.
func DefaultChannelNoise(m Modality) float64 {
	if m == ModalityPower {
		return DefaultPowerNoiseW
	}
	return DefaultCounterNoise
}

// VecSample is one labeled feature-vector measurement.
type VecSample struct {
	Features  []float32
	Label     int
	FromModel string
}

// VecDataset is a labeled feature-vector corpus for one modality.
type VecDataset struct {
	Modality Modality
	Dim      int
	Samples  []VecSample
	Classes  []string
}

// VectorizeDataset derives modality m's feature dataset from an existing
// trace dataset: every sample's kernel schedule feeds the channel
// derivation with a per-sample noise seed, so the result is identical for
// any worker count and no second measurement pass is paid.
func VectorizeDataset(d *Dataset, m Modality, seed uint64, workers int) *VecDataset {
	vd := &VecDataset{Modality: m, Classes: d.Classes}
	noise := DefaultChannelNoise(m)
	vd.Samples = parallel.Map(len(d.Samples), workers, func(i int) VecSample {
		s := d.Samples[i]
		opt := gpusim.ChannelOptions{
			Seed:  channelSeed(m, s.FromModel, i, seed),
			Noise: noise,
		}
		return VecSample{Features: FeaturesOf(m, s.Trace, opt), Label: s.Label, FromModel: s.FromModel}
	})
	if len(vd.Samples) > 0 {
		vd.Dim = len(vd.Samples[0].Features)
	}
	return vd
}

// VectorClassifier is a dense MLP identifier over one vector modality's
// features — deliberately small: the derived channels carry less
// information than the full trace image, and the fusion identifier only
// needs calibrated-ish posteriors from them.
type VectorClassifier struct {
	Modality Modality
	Dim      int
	Classes  []string
	// Workers bounds evaluation goroutines (<= 0 selects GOMAXPROCS); a
	// runtime knob with no effect on results.
	Workers int
	// Obs receives forward counts (fingerprint.vector_forwards); nil runs
	// un-instrumented.
	Obs *obs.Registry
	net *nn.Sequential
}

// NewVectorClassifier builds an untrained dense classifier for a
// modality's feature vectors.
func NewVectorClassifier(m Modality, dim int, classes []string, seed uint64) *VectorClassifier {
	r := rng.New(seed)
	return &VectorClassifier{
		Modality: m,
		Dim:      dim,
		Classes:  classes,
		net: nn.NewSequential(
			nn.NewDense(dim, 48, r.Derive("v1")), nn.NewReLU(),
			nn.NewDense(48, len(classes), r.Derive("v2")),
		),
	}
}

// matrixOf packs a vector dataset into an input matrix plus labels.
func (c *VectorClassifier) matrixOf(d *VecDataset) (*tensor.Matrix, []int) {
	x := tensor.New(len(d.Samples), c.Dim)
	labels := make([]int, len(d.Samples))
	for i, s := range d.Samples {
		copy(x.Row(i), s.Features)
		labels[i] = s.Label
	}
	return x, labels
}

// Train fits the classifier and returns the final mean loss.
func (c *VectorClassifier) Train(d *VecDataset, cfg TrainConfig) float64 {
	defer c.Obs.StartSpan("fingerprint.vector_train_seconds").End()
	if cfg.Epochs <= 0 {
		cfg.Epochs = 60
	}
	if cfg.LR == 0 {
		cfg.LR = 0.002
	}
	x, labels := c.matrixOf(d)
	loss := c.net.Fit(x, labels, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: 16,
		Optimizer: nn.NewAdamW(cfg.LR, 0),
		Seed:      cfg.Seed,
	})
	c.Obs.Log().Info("vector classifier trained",
		"modality", string(c.Modality), "samples", len(d.Samples), "loss", loss)
	return loss
}

// Posterior returns the class-probability vector for one feature vector,
// aligned with Classes.
func (c *VectorClassifier) Posterior(features []float32) []float64 {
	c.Obs.Counter("fingerprint.vector_forwards").Inc()
	x := tensor.FromSlice(1, c.Dim, features)
	return softmax64(c.net.Forward(x, false).Row(0))
}

// Predict returns the most likely class name for one feature vector.
func (c *VectorClassifier) Predict(features []float32) string {
	return c.Classes[ArgMax(c.Posterior(features))]
}

// Accuracy returns classification accuracy over a vector dataset.
// Samples evaluate concurrently; the correct count aggregates after the
// join, so the result is identical for any worker count.
func (c *VectorClassifier) Accuracy(d *VecDataset) float64 {
	if len(d.Samples) == 0 {
		return 0
	}
	hits := parallel.Map(len(d.Samples), c.Workers, func(i int) bool {
		return ArgMax(c.Posterior(d.Samples[i].Features)) == d.Samples[i].Label
	})
	correct := 0
	for _, h := range hits {
		if h {
			correct++
		}
	}
	return float64(correct) / float64(len(d.Samples))
}

// Posterior returns the CNN's class-probability vector for a trace,
// aligned with Classes — the trace modality's entry into posterior
// fusion. It leaves the fingerprint.forwards counter alone (that counter
// meters Predict).
func (c *Classifier) Posterior(t *gpusim.Trace) []float64 {
	x := tensor.FromSlice(1, c.ImgSize*c.ImgSize, c.preprocess(t))
	return softmax64(c.net.Forward(x, false).Row(0))
}

// softmax64 converts float32 logits to a float64 probability vector with
// the usual max-subtraction for stability.
func softmax64(logits []float32) []float64 {
	if len(logits) == 0 {
		return nil
	}
	maxL := logits[0]
	for _, l := range logits[1:] {
		if l > maxL {
			maxL = l
		}
	}
	out := make([]float64, len(logits))
	var sum float64
	for i, l := range logits {
		e := math.Exp(float64(l - maxL))
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// ArgMax returns the index of the largest probability, lowest index on
// ties — the deterministic tie-break every identifier shares.
func ArgMax(probs []float64) int {
	best := 0
	for i, p := range probs {
		if p > probs[best] {
			best = i
		}
	}
	return best
}

// FusePosteriors combines per-modality posteriors by weighted log-linear
// pooling (a product of experts): fused ∝ Π p_m^w_m. nil posterior
// entries — jammed or absent sensors — are skipped, so the fusion
// degrades gracefully to whatever survives; it returns nil only when
// nothing does. weights may be nil (equal weights) and is otherwise
// indexed like posts; non-positive weights mute a modality.
func FusePosteriors(posts [][]float64, weights []float64) []float64 {
	const eps = 1e-12
	var fusedLog []float64
	used := 0
	for i, p := range posts {
		if p == nil {
			continue
		}
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		if w <= 0 {
			continue
		}
		if fusedLog == nil {
			fusedLog = make([]float64, len(p))
		}
		for j, pj := range p {
			fusedLog[j] += w * math.Log(pj+eps)
		}
		used++
	}
	if used == 0 {
		return nil
	}
	// Normalize back to probabilities (log-sum-exp).
	maxL := fusedLog[0]
	for _, l := range fusedLog[1:] {
		if l > maxL {
			maxL = l
		}
	}
	var sum float64
	out := make([]float64, len(fusedLog))
	for i, l := range fusedLog {
		e := math.Exp(l - maxL)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// FusionWeights converts per-modality calibration accuracies into pooling
// weights: each modality's weight is its accuracy raised to a sharpening
// power and floor-clamped, normalized so the largest is 1. Sharpening
// makes the strongest sensor dominate unless the others are confident —
// in practice this keeps fused accuracy at or above the best single
// modality while still letting agreement between weak sensors outvote a
// perturbed strong one.
func FusionWeights(accuracies []float64) []float64 {
	const sharpen = 4.0
	out := make([]float64, len(accuracies))
	var best float64
	for i, a := range accuracies {
		if a < 0.05 {
			a = 0.05
		}
		out[i] = math.Pow(a, sharpen)
		if out[i] > best {
			best = out[i]
		}
	}
	if best > 0 {
		for i := range out {
			out[i] /= best
		}
	}
	return out
}

// SortedModalityNames renders a modality set as sorted strings — stable
// report/log output regardless of request order.
func SortedModalityNames(ms []Modality) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = string(m)
	}
	sort.Strings(out)
	return out
}
