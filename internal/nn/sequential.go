package nn

import (
	"decepticon/internal/parallel"
	"decepticon/internal/rng"
	"decepticon/internal/stats"
	"decepticon/internal/tensor"
)

// Sequential chains layers into a feed-forward network.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a network from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs a batch through the network.
func (s *Sequential) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates an output gradient through the network, accumulating
// parameter gradients.
func (s *Sequential) Backward(grad *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// trainStep runs one mini-batch step — forward, cross-entropy loss,
// backward, optimizer update — and returns the batch's mean loss. Nothing
// consumes the gradient of the network input, so the first layer skips
// computing it when it can.
func (s *Sequential) trainStep(x *tensor.Matrix, labels []int, opt Optimizer) float64 {
	loss, grad := SoftmaxCrossEntropy(s.Forward(x, true), labels)
	for i := len(s.Layers) - 1; i > 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	if pb, ok := s.Layers[0].(paramBackwarder); ok {
		pb.backwardParams(grad)
	} else {
		s.Layers[0].Backward(grad)
	}
	opt.Step(s.Params(), s.Grads())
	return loss
}

// eachTrainer calls fn on every layer that keeps train-mode state (a
// Residual passes the call on to its path).
func (s *Sequential) eachTrainer(fn func(trainer)) {
	for _, l := range s.Layers {
		if t, ok := l.(trainer); ok {
			fn(t)
		}
	}
}

// Params returns all trainable tensors in layer order.
func (s *Sequential) Params() []*tensor.Matrix {
	var ps []*tensor.Matrix
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Grads returns all gradient tensors aligned with Params.
func (s *Sequential) Grads() []*tensor.Matrix {
	var gs []*tensor.Matrix
	for _, l := range s.Layers {
		gs = append(gs, l.Grads()...)
	}
	return gs
}

// Predict returns the argmax class for every row of x.
func (s *Sequential) Predict(x *tensor.Matrix) []int {
	logits := s.Forward(x, false)
	out := make([]int, logits.Rows)
	for i := range out {
		out[i] = stats.ArgMax(logits.Row(i))
	}
	return out
}

// TrainConfig controls Fit.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	Seed      uint64
	// OnEpoch, if non-nil, is called after each epoch with the epoch index
	// and mean training loss.
	OnEpoch func(epoch int, loss float64)
	// Stop, if non-nil, is polled before each epoch; returning true ends
	// training early with the loss of the last completed epoch. Epochs
	// mutate the network in place, so the abort granularity is a whole
	// epoch — callers wire a context's Done state in here.
	Stop func() bool
	// Workers bounds the goroutines one training step fans out over
	// (<= 0 selects GOMAXPROCS). The layers split their work without
	// changing any accumulation order, so the trained parameters are
	// bit-identical for every value.
	Workers int
}

// Fit trains the network on (x, labels) with shuffled mini-batches and
// returns the final epoch's mean loss.
func (s *Sequential) Fit(x *tensor.Matrix, labels []int, cfg TrainConfig) float64 {
	if x.Rows != len(labels) {
		panic("nn: Fit input/label mismatch")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = &SGD{LR: 0.01}
	}
	s.eachTrainer(func(t trainer) { t.beginTrain(parallel.Workers(cfg.Workers)) })
	defer s.eachTrainer(trainer.endTrain)
	r := rng.New(cfg.Seed)
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Stop != nil && cfg.Stop() {
			break
		}
		perm := r.Perm(x.Rows)
		var epochLoss float64
		batches := 0
		for start := 0; start < len(perm); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(perm) {
				end = len(perm)
			}
			idx := perm[start:end]
			xb := tensor.New(len(idx), x.Cols)
			yb := make([]int, len(idx))
			for i, p := range idx {
				copy(xb.Row(i), x.Row(p))
				yb[i] = labels[p]
			}
			epochLoss += s.trainStep(xb, yb, cfg.Optimizer)
			batches++
		}
		lastLoss = epochLoss / float64(batches)
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, lastLoss)
		}
	}
	return lastLoss
}

// Evaluate returns classification accuracy on (x, labels).
func (s *Sequential) Evaluate(x *tensor.Matrix, labels []int) float64 {
	return stats.Accuracy(s.Predict(x), labels)
}
