// Package nn is a small, dependency-free neural-network framework with
// hand-written backpropagation. It powers the three auxiliary models of the
// reproduction: the fingerprint CNN classifier (paper §5.4.2), the
// DeepSniffer layer-sequence baseline (Table 2), and the ResNet-18 analog
// used for the generalization study (Fig 19).
//
// Data layout: a batch is a tensor.Matrix with one example per row. Image
// inputs are flattened channel-major (C, then H, then W); convolutional
// layers carry their spatial dimensions in their configuration.
package nn

import (
	"fmt"
	"math"

	"decepticon/internal/parallel"
	"decepticon/internal/rng"
	"decepticon/internal/tensor"
)

// Layer is a differentiable network stage. Forward must be called before
// Backward; layers may cache activations between the two calls, so a Layer
// instance is not safe for concurrent use. A train-mode result may live
// in a layer-owned scratch buffer that the layer's next call of the same
// kind overwrites; eval-mode forwards always return fresh matrices.
type Layer interface {
	// Name identifies the layer type (used in traces and error messages).
	Name() string
	// Forward computes the layer output for a batch x.
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	// Backward consumes the gradient of the loss with respect to the
	// layer's output and returns the gradient with respect to its input,
	// accumulating parameter gradients internally.
	Backward(grad *tensor.Matrix) *tensor.Matrix
	// Params returns the layer's trainable tensors (possibly empty).
	Params() []*tensor.Matrix
	// Grads returns the gradient tensors aligned with Params.
	Grads() []*tensor.Matrix
}

// Dense is a fully connected layer: y = xW + b.
type Dense struct {
	In, Out int
	W, B    *tensor.Matrix // W: In×Out, B: 1×Out
	dW, dB  *tensor.Matrix
	x       *tensor.Matrix // cached input
}

// NewDense returns a dense layer with Kaiming-style initialization.
func NewDense(in, out int, r *rng.RNG) *Dense {
	std := math.Sqrt(2.0 / float64(in))
	return &Dense{
		In: in, Out: out,
		W:  tensor.Randn(in, out, std, r),
		B:  tensor.New(1, out),
		dW: tensor.New(in, out),
		dB: tensor.New(1, out),
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("fc_%dx%d", d.In, d.Out) }

// Forward implements Layer. The input is cached for Backward only when
// train is set; inference passes leave the layer untouched, so a trained
// network may serve concurrent eval-mode forwards.
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		d.x = x
	}
	out := tensor.MatMul(x, d.W)
	out.AddRowVector(d.B.Data)
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	d.backwardParams(grad)
	return tensor.MatMulNT(grad, d.W)
}

// backwardParams accumulates dW and dB without the input gradient.
func (d *Dense) backwardParams(grad *tensor.Matrix) {
	tensor.AddInPlace(d.dW, tensor.MatMulTN(d.x, grad))
	bg := grad.SumRows()
	for i := range bg {
		d.dB.Data[i] += bg[i]
	}
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Matrix { return []*tensor.Matrix{d.W, d.B} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Matrix { return []*tensor.Matrix{d.dW, d.dB} }

// ReLU is the rectified linear activation.
type ReLU struct {
	y *tensor.Matrix // train-mode output, kept for Backward

	workers int     // train-mode fan-out set by Fit (0 = serial)
	buf     buffers // train-mode scratch: out, dx
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Forward implements Layer. Only train-mode passes touch layer state
// (see Dense.Forward); they keep the output, which is positive exactly
// where the input is, in place of a separate gradient mask.
func (r *ReLU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if !train {
		return tensor.ReLU(x)
	}
	r.y = r.buf.get(0, x.Rows, x.Cols)
	parallel.ForEach(x.Rows, rowWorkers(r.workers, x), func(b int) {
		dst := r.y.Row(b)
		for i, v := range x.Row(b) {
			// v > 0 exactly when its bits minus one, unsigned, fall below
			// +Inf's: zero and the negatives wrap high, NaNs sit above.
			// The integer select compiles without a branch, which the
			// sign of a conv output would mispredict half the time.
			bits := math.Float32bits(v)
			var o uint32
			if bits-1 < 0x7f800000 {
				o = bits
			}
			dst[i] = math.Float32frombits(o)
		}
	})
	return r.y
}

// Backward implements Layer: the gradient times a 0/1 mask, the same
// product tensor.Hadamard forms with tensor.ReLUGradMask.
func (r *ReLU) Backward(grad *tensor.Matrix) *tensor.Matrix {
	dx := r.buf.get(1, grad.Rows, grad.Cols)
	parallel.ForEach(grad.Rows, rowWorkers(r.workers, grad), func(b int) {
		y, dst := r.y.Row(b), dx.Row(b)
		for i, g := range grad.Row(b) {
			// The kept output is +0 or positive, so its bits are
			// non-zero exactly where the mask is 1.
			dst[i] = g * float32(min(math.Float32bits(y[i]), 1))
		}
	})
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*tensor.Matrix { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Matrix { return nil }

func (r *ReLU) beginTrain(workers int) { r.workers = workers }

func (r *ReLU) endTrain() { r.workers, r.y, r.buf = 0, nil, buffers{} }

// trainer is implemented by layers whose train-mode passes fan out over
// workers or keep scratch buffers. Fit calls beginTrain before its first
// batch and endTrain after its last, which drops the scratch and caches
// so a trained network holds only its parameters.
type trainer interface {
	beginTrain(workers int)
	endTrain()
}

// paramBackwarder is implemented by layers that can accumulate their
// parameter gradients without computing an input gradient — all Fit
// needs from a network's first layer.
type paramBackwarder interface {
	backwardParams(grad *tensor.Matrix)
}

// buffers holds a layer's train-mode scratch matrices, one per slot. A
// slot is reused batch after batch, so a matrix returned by a
// train-mode Forward or Backward stays valid only until the layer's next
// call of the same kind — which is all Fit and Sequential need.
type buffers [4]*tensor.Matrix

// get returns slot i shaped rows×cols. It allocates (zeroed) only when
// the slot is too small; otherwise the contents are what the slot last
// held.
func (bs *buffers) get(i, rows, cols int) *tensor.Matrix {
	m := bs[i]
	if m == nil || cap(m.Data) < rows*cols {
		m = tensor.New(rows, cols)
		bs[i] = m
		return m
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

// minParallelCells is the smallest matrix an elementwise train-mode pass
// splits over its workers; below it the fan-out costs more than it saves.
const minParallelCells = 1 << 15

// rowWorkers returns the fan-out for an elementwise pass over m's rows.
func rowWorkers(workers int, m *tensor.Matrix) int {
	if len(m.Data) < minParallelCells {
		return 1
	}
	return max(workers, 1)
}

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// against integer labels and the gradient of the loss with respect to the
// logits (already divided by the batch size).
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix) {
	if len(labels) != logits.Rows {
		panic("nn: label count does not match batch size")
	}
	probs := tensor.SoftmaxRows(logits)
	grad := probs.Clone()
	var loss float64
	n := float32(logits.Rows)
	for i, y := range labels {
		if y < 0 || y >= logits.Cols {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, logits.Cols))
		}
		p := probs.At(i, y)
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(float64(p))
		grad.Set(i, y, grad.At(i, y)-1)
	}
	grad.Scale(1 / n)
	return loss / float64(logits.Rows), grad
}
