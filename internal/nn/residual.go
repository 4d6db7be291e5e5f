package nn

import "decepticon/internal/tensor"

// Residual wraps a sub-network with an identity skip connection:
// y = x + path(x). The path must preserve the input shape (use padded
// convolutions). It is the building block of the ResNet analog used in
// the generalization study (paper §7.7).
type Residual struct {
	Path []Layer
}

// NewResidual returns a residual block over the given path.
func NewResidual(path ...Layer) *Residual { return &Residual{Path: path} }

// Name implements Layer.
func (r *Residual) Name() string { return "residual" }

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	y := x
	for _, l := range r.Path {
		y = l.Forward(y, train)
	}
	return tensor.Add(y, x)
}

// Backward implements Layer.
func (r *Residual) Backward(grad *tensor.Matrix) *tensor.Matrix {
	g := grad
	for i := len(r.Path) - 1; i >= 0; i-- {
		g = r.Path[i].Backward(g)
	}
	return tensor.Add(g, grad)
}

// Params implements Layer.
func (r *Residual) Params() []*tensor.Matrix {
	var ps []*tensor.Matrix
	for _, l := range r.Path {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Grads implements Layer.
func (r *Residual) Grads() []*tensor.Matrix {
	var gs []*tensor.Matrix
	for _, l := range r.Path {
		gs = append(gs, l.Grads()...)
	}
	return gs
}

func (r *Residual) beginTrain(workers int) {
	for _, l := range r.Path {
		if t, ok := l.(trainer); ok {
			t.beginTrain(workers)
		}
	}
}

func (r *Residual) endTrain() {
	for _, l := range r.Path {
		if t, ok := l.(trainer); ok {
			t.endTrain()
		}
	}
}
