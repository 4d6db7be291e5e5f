package transformer

import (
	"decepticon/internal/nn"
	"decepticon/internal/rng"
	"decepticon/internal/stats"
	"decepticon/internal/tensor"
)

// Example is one labeled sequence.
type Example struct {
	Tokens []int
	Label  int
}

// TrainConfig controls Train.
type TrainConfig struct {
	Epochs      int
	BatchSize   int
	LR          float64
	WeightDecay float64
	WarmupSteps int
	// TotalSteps enables the warmup-then-linear-decay schedule (see
	// nn.AdamW.TotalSteps).
	TotalSteps int
	Seed       uint64
	// HeadLR, when non-zero, trains the task head with its own (typically
	// much larger) learning rate while the backbone uses LR — the standard
	// discriminative fine-tuning setup. This is what makes the paper's
	// Figs 5-6 shape: the freshly initialized last layer moves a lot, the
	// backbone barely moves.
	HeadLR float64
	// FreezeBackbone trains only the classification head — used to build
	// the distillation substitute models quickly and to model "feature
	// extraction" style fine-tuning.
	FreezeBackbone bool
	// OnEpoch, if non-nil, observes training (epoch index, mean loss).
	OnEpoch func(epoch int, loss float64)
}

// optimView adapts the model's named params to the nn.Optimizer interface.
// group selects which parameters are returned.
type paramGroup int

const (
	allParams paramGroup = iota
	headParams
	backboneParams
)

func (m *Model) optimView(group paramGroup) (params, grads []*tensor.Matrix) {
	for _, p := range m.Params() {
		if group == headParams && !p.IsHead {
			continue
		}
		if group == backboneParams && p.IsHead {
			continue
		}
		params = append(params, p.Value)
		grads = append(grads, p.Grad)
	}
	return params, grads
}

// Train fine-tunes (or pre-trains) the model on examples with AdamW and
// returns the final epoch's mean loss. Defaults mirror transformer
// fine-tuning practice: small LR (3e-4 here, scaled for the small models),
// a short warmup, decoupled weight decay, and few epochs. Every step
// reuses the model's training workspace; Train drops it on return.
func (m *Model) Train(examples []Example, cfg TrainConfig) float64 {
	if len(examples) == 0 {
		panic("transformer: Train with no examples")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 3
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 8
	}
	if cfg.LR == 0 {
		cfg.LR = 3e-4
	}
	// Parameter groups: the backbone and the task head, each with its own
	// optimizer so discriminative learning rates are possible.
	type group struct {
		opt           *nn.AdamW
		params, grads []*tensor.Matrix
	}
	mkOpt := func(lr float64) *nn.AdamW {
		opt := nn.NewAdamW(lr, cfg.WeightDecay)
		opt.WarmupSteps = cfg.WarmupSteps
		opt.TotalSteps = cfg.TotalSteps
		return opt
	}
	var groups []group
	switch {
	case cfg.FreezeBackbone:
		p, g := m.optimView(headParams)
		groups = []group{{mkOpt(cfg.LR), p, g}}
	case cfg.HeadLR != 0 && cfg.HeadLR != cfg.LR:
		bp, bg := m.optimView(backboneParams)
		hp, hg := m.optimView(headParams)
		groups = []group{{mkOpt(cfg.LR), bp, bg}, {mkOpt(cfg.HeadLR), hp, hg}}
	default:
		p, g := m.optimView(allParams)
		groups = []group{{mkOpt(cfg.LR), p, g}}
	}
	r := rng.New(cfg.Seed)

	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := r.Perm(len(examples))
		var epochLoss float64
		batches := 0
		for start := 0; start < len(perm); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(perm) {
				end = len(perm)
			}
			var batchLoss float64
			for _, idx := range perm[start:end] {
				ex := examples[idx]
				loss, _ := m.LossAndBackward(ex.Tokens, ex.Label)
				batchLoss += loss
			}
			n := float32(end - start)
			for _, g := range groups {
				for _, gr := range g.grads {
					gr.Scale(1 / n)
				}
				g.opt.Step(g.params, g.grads)
			}
			if cfg.FreezeBackbone {
				// Backbone grads still accumulated; drop them.
				m.ZeroGrads()
			}
			epochLoss += batchLoss / float64(n)
			batches++
		}
		lastLoss = epochLoss / float64(batches)
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, lastLoss)
		}
	}
	m.ws = nil
	return lastLoss
}

// Evaluate returns classification accuracy over examples.
func (m *Model) Evaluate(examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	pred := make([]int, len(examples))
	truth := make([]int, len(examples))
	for i, ex := range examples {
		pred[i] = m.Predict(ex.Tokens)
		truth[i] = ex.Label
	}
	return stats.Accuracy(pred, truth)
}

// EvaluateF1 returns the macro-F1 score over examples.
func (m *Model) EvaluateF1(examples []Example) float64 {
	pred := make([]int, len(examples))
	truth := make([]int, len(examples))
	for i, ex := range examples {
		pred[i] = m.Predict(ex.Tokens)
		truth[i] = ex.Label
	}
	return stats.MacroF1(pred, truth, m.Labels)
}

// Predictions returns the model's argmax outputs for examples — used for
// the victim/clone "matched predictions" metric and for distillation.
func (m *Model) Predictions(examples []Example) []int {
	out := make([]int, len(examples))
	for i, ex := range examples {
		out[i] = m.Predict(ex.Tokens)
	}
	return out
}

// FineTuneFrom builds a fine-tuned model from a pre-trained backbone: the
// backbone weights are copied, a fresh task head with numLabels outputs is
// attached (the "task-dependent last layer"), and the model is trained on
// examples. headSeed controls the new head's initialization.
func FineTuneFrom(pre *Model, numLabels int, examples []Example, cfg TrainConfig, headSeed uint64) *Model {
	ft := New(pre.Config.WithLabels(numLabels), headSeed)
	// Copy backbone.
	ft.CopyEmbeddingsFrom(pre)
	for l := range pre.Blocks {
		ft.CopyBlockFrom(pre, l)
	}
	ft.Train(examples, cfg)
	return ft
}

// HeadConfidence returns, per block and head, the paper's head-pruning
// Confidence metric (§8): the mean over probe sequences and positions of
// the maximum attention weight of that head.
func (m *Model) HeadConfidence(probes [][]int) [][]float64 {
	conf := make([][]float64, m.Layers)
	for l := range conf {
		conf[l] = make([]float64, m.Heads)
	}
	if len(probes) == 0 {
		return conf
	}
	for _, tokens := range probes {
		m.forwardCached(tokens)
		for l, b := range m.Blocks {
			for h := 0; h < m.Heads; h++ {
				if b.HeadPruned[h] || m.ws.blocks[l].probs[h] == nil {
					continue
				}
				p := m.ws.blocks[l].probs[h]
				var sum float64
				for i := 0; i < p.Rows; i++ {
					row := p.Row(i)
					mx := row[0]
					for _, v := range row {
						if v > mx {
							mx = v
						}
					}
					sum += float64(mx)
				}
				conf[l][h] += sum / float64(p.Rows)
			}
		}
	}
	for l := range conf {
		for h := range conf[l] {
			conf[l][h] /= float64(len(probes))
		}
	}
	return conf
}

// HeadConfidenceSeries returns, per block and head, the Confidence value
// of each probe input separately (indexed [layer][head][probe]). The
// per-input series is what the Fig 20 correlation cells compare: two
// models share a head's "behavior" when their confidences co-vary across
// inputs, not merely when their averages agree.
func (m *Model) HeadConfidenceSeries(probes [][]int) [][][]float64 {
	series := make([][][]float64, m.Layers)
	for l := range series {
		series[l] = make([][]float64, m.Heads)
		for h := range series[l] {
			series[l][h] = make([]float64, len(probes))
		}
	}
	for pi, tokens := range probes {
		m.forwardCached(tokens)
		for l, b := range m.Blocks {
			for h := 0; h < m.Heads; h++ {
				if b.HeadPruned[h] || m.ws.blocks[l].probs[h] == nil {
					continue
				}
				p := m.ws.blocks[l].probs[h]
				var sum float64
				for i := 0; i < p.Rows; i++ {
					row := p.Row(i)
					mx := row[0]
					for _, v := range row {
						if v > mx {
							mx = v
						}
					}
					sum += float64(mx)
				}
				series[l][h][pi] = sum / float64(p.Rows)
			}
		}
	}
	return series
}

// PruneHeads marks the given heads of block l as pruned.
func (m *Model) PruneHeads(l int, heads ...int) {
	for _, h := range heads {
		m.Blocks[l].HeadPruned[h] = true
	}
}

// PrunedHeadCount returns the total number of pruned heads.
func (m *Model) PrunedHeadCount() int {
	n := 0
	for _, b := range m.Blocks {
		for _, p := range b.HeadPruned {
			if p {
				n++
			}
		}
	}
	return n
}
