package nn

import (
	"fmt"
	"math"

	"decepticon/internal/parallel"
	"decepticon/internal/rng"
	"decepticon/internal/tensor"
)

// Conv2D is a stride-1 2-D convolution over channel-major flattened
// images with optional zero padding. Inputs are batches of InC×H×W
// images; outputs are OutC×(H+2P-K+1)×(W+2P-K+1).
//
// The kernels are exact re-orderings of the direct 7-deep loop: every
// output, weight gradient and input gradient is accumulated in the same
// order, with the same roundings, as that loop did (DESIGN.md §4 states
// the contract), so results are bit-identical for any worker count.
type Conv2D struct {
	InC, OutC, K int
	H, W         int            // input spatial dimensions
	Pad          int            // zero padding on each side
	Weight       *tensor.Matrix // OutC × (InC*K*K)
	Bias         *tensor.Matrix // 1 × OutC
	dWeight      *tensor.Matrix
	dBias        *tensor.Matrix
	x            *tensor.Matrix // cached (padded) input
	batch        int

	workers int     // train-mode fan-out set by Fit (0 = serial)
	buf     buffers // train-mode scratch: xpad, out, dxpad, dx
}

// NewConv2D returns an unpadded ("valid") convolution layer for InC×H×W
// inputs with OutC filters of size K×K (Kaiming initialization).
func NewConv2D(inC, outC, k, h, w int, r *rng.RNG) *Conv2D {
	return NewConv2DPadded(inC, outC, k, h, w, 0, r)
}

// NewConv2DPadded returns a convolution layer with zero padding pad —
// pad = (k-1)/2 preserves the spatial dimensions, as residual blocks need.
func NewConv2DPadded(inC, outC, k, h, w, pad int, r *rng.RNG) *Conv2D {
	if k > h+2*pad || k > w+2*pad {
		panic(fmt.Sprintf("nn: conv kernel %d larger than padded input %dx%d", k, h+2*pad, w+2*pad))
	}
	if pad < 0 {
		panic("nn: negative padding")
	}
	fan := inC * k * k
	std := math.Sqrt(2.0 / float64(fan))
	return &Conv2D{
		InC: inC, OutC: outC, K: k, H: h, W: w, Pad: pad,
		Weight:  tensor.Randn(outC, fan, std, r),
		Bias:    tensor.New(1, outC),
		dWeight: tensor.New(outC, fan),
		dBias:   tensor.New(1, outC),
	}
}

// padH returns the padded input height.
func (c *Conv2D) padH() int { return c.H + 2*c.Pad }

// padW returns the padded input width.
func (c *Conv2D) padW() int { return c.W + 2*c.Pad }

// OutH returns the output height.
func (c *Conv2D) OutH() int { return c.padH() - c.K + 1 }

// OutW returns the output width.
func (c *Conv2D) OutW() int { return c.padW() - c.K + 1 }

// padRow copies one image into its zero-padded layout. Only interior
// cells are written: dst's border must already be zero.
func (c *Conv2D) padRow(src, dst []float32) {
	ph, pw := c.padH(), c.padW()
	for ic := 0; ic < c.InC; ic++ {
		for y := 0; y < c.H; y++ {
			srcOff := ic*c.H*c.W + y*c.W
			dstOff := ic*ph*pw + (y+c.Pad)*pw + c.Pad
			copy(dst[dstOff:dstOff+c.W], src[srcOff:srcOff+c.W])
		}
	}
}

// cropRow maps one padded-input gradient back to the original layout.
func (c *Conv2D) cropRow(src, dst []float32) {
	ph, pw := c.padH(), c.padW()
	for ic := 0; ic < c.InC; ic++ {
		for y := 0; y < c.H; y++ {
			srcOff := ic*ph*pw + (y+c.Pad)*pw + c.Pad
			dstOff := ic*c.H*c.W + y*c.W
			copy(dst[dstOff:dstOff+c.W], src[srcOff:srcOff+c.W])
		}
	}
}

// OutSize returns the flattened output width (OutC*OutH*OutW).
func (c *Conv2D) OutSize() int { return c.OutC * c.OutH() * c.OutW() }

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv_%dto%d_k%d", c.InC, c.OutC, c.K)
}

// Forward implements Layer. Batch rows are independent, so a train-mode
// batch is split over rows on the layer's workers; inference passes run
// serially and allocate fresh, so a trained network may serve concurrent
// eval-mode forwards.
func (c *Conv2D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != c.InC*c.H*c.W {
		panic(fmt.Sprintf("nn: conv input %d, want %d", x.Cols, c.InC*c.H*c.W))
	}
	xp, workers := x, 1
	var out *tensor.Matrix
	padCols := c.InC * c.padH() * c.padW()
	if train {
		// Cache the padded input for Backward. The padded scratch only
		// ever has its interior written, so its border stays zero.
		if c.Pad > 0 {
			xp = c.buf.get(0, x.Rows, padCols)
		}
		out = c.buf.get(1, x.Rows, c.OutSize())
		c.batch, c.x, workers = x.Rows, xp, c.workers
	} else {
		if c.Pad > 0 {
			xp = tensor.New(x.Rows, padCols)
		}
		out = tensor.New(x.Rows, c.OutSize())
	}
	parallel.ForEach(x.Rows, max(workers, 1), func(b int) {
		if c.Pad > 0 {
			c.padRow(x.Row(b), xp.Row(b))
		}
		c.forwardRow(xp.Row(b), out.Row(b))
	})
	return out
}

// forwardRow convolves one padded image. Each output starts at its bias
// and then takes the (ic, ky, kx) taps in order, as the direct loop did;
// the loops are interchanged only so the innermost one runs contiguously
// over output columns, with one kernel row's K taps accumulated in a
// register between loads and stores of the output.
func (c *Conv2D) forwardRow(in, dst []float32) {
	K, pw := c.K, c.padW()
	plane := c.padH() * pw
	oh, ow := c.OutH(), c.OutW()
	for oc := 0; oc < c.OutC; oc++ {
		w := c.Weight.Row(oc)
		bias := c.Bias.Data[oc]
		for oy := 0; oy < oh; oy++ {
			acc := dst[(oc*oh+oy)*ow : (oc*oh+oy+1)*ow]
			for i := range acc {
				acc[i] = bias
			}
			for ic := 0; ic < c.InC; ic++ {
				for ky := 0; ky < K; ky++ {
					off := ic*plane + (oy+ky)*pw
					rowTaps(acc, in[off:off+ow+K-1], w[(ic*K+ky)*K:(ic*K+ky+1)*K])
				}
			}
		}
	}
}

// rowTapsGo adds one kernel row to every output column:
// acc[x] = ((acc[x] + w[0]*r[x]) + w[1]*r[x+1]) + …, one rounding per
// operation, left to right. len(r) must be len(acc)+len(w)-1. It is the
// reference the vectorized rowTaps is tested against, the tail of its
// columns, and rowTaps itself where no vector kernel exists.
func rowTapsGo(acc, r, w []float32) {
	switch len(w) {
	case 5:
		w0, w1, w2, w3, w4 := w[0], w[1], w[2], w[3], w[4]
		for x := range acc {
			t := r[x : x+5 : x+5]
			s := acc[x]
			s += w0 * t[0]
			s += w1 * t[1]
			s += w2 * t[2]
			s += w3 * t[3]
			s += w4 * t[4]
			acc[x] = s
		}
	case 4:
		w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
		for x := range acc {
			t := r[x : x+4 : x+4]
			s := acc[x]
			s += w0 * t[0]
			s += w1 * t[1]
			s += w2 * t[2]
			s += w3 * t[3]
			acc[x] = s
		}
	case 3:
		w0, w1, w2 := w[0], w[1], w[2]
		for x := range acc {
			t := r[x : x+3 : x+3]
			s := acc[x]
			s += w0 * t[0]
			s += w1 * t[1]
			s += w2 * t[2]
			acc[x] = s
		}
	default:
		for x := range acc {
			t := r[x : x+len(w)]
			s := acc[x]
			for k, wk := range w {
				s += wk * t[k]
			}
			acc[x] = s
		}
	}
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Matrix) *tensor.Matrix {
	c.backwardParams(grad)
	return c.backwardInput(grad)
}

// backwardParams accumulates dW and dB, split over output channels. Each
// element still sums its terms in (b, oy, ox) order, starting from its
// current value, and zero output gradients are skipped as the direct
// loop skipped them — behind a max-pool most are zero, which keeps this
// pass sparse. Splitting by batch row instead would need per-row partial
// sums and a reduction that changes the rounding.
func (c *Conv2D) backwardParams(grad *tensor.Matrix) {
	K, pw := c.K, c.padW()
	plane := c.padH() * pw
	oh, ow := c.OutH(), c.OutW()
	parallel.ForEach(c.OutC, max(c.workers, 1), func(oc int) {
		dw := c.dWeight.Row(oc)
		db := c.dBias.Data[oc]
		for b := 0; b < c.batch; b++ {
			in := c.x.Row(b)
			g := grad.Row(b)[oc*oh*ow : (oc+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				for ox, gv := range g[oy*ow : (oy+1)*ow] {
					if gv == 0 {
						continue
					}
					db += gv
					for ic := 0; ic < c.InC; ic++ {
						for ky := 0; ky < K; ky++ {
							off := ic*plane + (oy+ky)*pw + ox
							r := in[off : off+K]
							dk := dw[(ic*K+ky)*K : (ic*K+ky+1)*K]
							for kx, v := range r {
								dk[kx] += gv * v
							}
						}
					}
				}
			}
		}
		c.dBias.Data[oc] = db
	})
}

// backwardInput returns the input gradient, split over batch rows. Each
// input cell sums its terms in (oc, oy, ox) order, skipping zero output
// gradients, exactly as the direct loop did.
func (c *Conv2D) backwardInput(grad *tensor.Matrix) *tensor.Matrix {
	K, pw := c.K, c.padW()
	plane := c.padH() * pw
	oh, ow := c.OutH(), c.OutW()
	dxp := c.buf.get(2, c.batch, c.InC*plane)
	dx := dxp
	if c.Pad > 0 {
		dx = c.buf.get(3, c.batch, c.InC*c.H*c.W)
	}
	parallel.ForEach(c.batch, max(c.workers, 1), func(b int) {
		din := dxp.Row(b)
		clear(din)
		g := grad.Row(b)
		for oc := 0; oc < c.OutC; oc++ {
			w := c.Weight.Row(oc)
			for oy := 0; oy < oh; oy++ {
				for ox, gv := range g[(oc*oh+oy)*ow : (oc*oh+oy+1)*ow] {
					if gv == 0 {
						continue
					}
					for ic := 0; ic < c.InC; ic++ {
						for ky := 0; ky < K; ky++ {
							off := ic*plane + (oy+ky)*pw + ox
							d := din[off : off+K]
							for kx, wv := range w[(ic*K+ky)*K : (ic*K+ky+1)*K] {
								d[kx] += gv * wv
							}
						}
					}
				}
			}
		}
		if c.Pad > 0 {
			c.cropRow(din, dx.Row(b))
		}
	})
	return dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Matrix { return []*tensor.Matrix{c.Weight, c.Bias} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Matrix { return []*tensor.Matrix{c.dWeight, c.dBias} }

func (c *Conv2D) beginTrain(workers int) { c.workers = workers }

func (c *Conv2D) endTrain() {
	c.workers, c.x, c.batch, c.buf = 0, nil, 0, buffers{}
}

// MaxPool2D is a non-overlapping K×K max pooling layer over channel-major
// flattened images. Input dimensions must be divisible by K.
type MaxPool2D struct {
	C, H, W, K int
	argmax     []int // per batch element and output cell: input index of max
	batch      int

	workers int     // train-mode fan-out set by Fit (0 = serial)
	buf     buffers // train-mode scratch: out, dx
}

// NewMaxPool2D returns a K×K stride-K max pooling layer for C×H×W inputs.
func NewMaxPool2D(c, h, w, k int) *MaxPool2D {
	if h%k != 0 || w%k != 0 {
		panic(fmt.Sprintf("nn: pool input %dx%d not divisible by %d", h, w, k))
	}
	return &MaxPool2D{C: c, H: h, W: w, K: k}
}

// OutH returns the output height.
func (p *MaxPool2D) OutH() int { return p.H / p.K }

// OutW returns the output width.
func (p *MaxPool2D) OutW() int { return p.W / p.K }

// OutSize returns the flattened output width.
func (p *MaxPool2D) OutSize() int { return p.C * p.OutH() * p.OutW() }

// Name implements Layer.
func (p *MaxPool2D) Name() string { return fmt.Sprintf("maxpool_k%d", p.K) }

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != p.C*p.H*p.W {
		panic(fmt.Sprintf("nn: pool input %d, want %d", x.Cols, p.C*p.H*p.W))
	}
	size := p.OutSize()
	if !train {
		out := tensor.New(x.Rows, size)
		for b := 0; b < x.Rows; b++ {
			p.forwardRow(x.Row(b), out.Row(b), nil)
		}
		return out
	}
	// Max routing is cached for Backward only during training; see
	// Conv2D.Forward.
	out := p.buf.get(0, x.Rows, size)
	if n := x.Rows * size; cap(p.argmax) < n {
		p.argmax = make([]int, n)
	} else {
		p.argmax = p.argmax[:n]
	}
	p.batch = x.Rows
	parallel.ForEach(x.Rows, rowWorkers(p.workers, x), func(b int) {
		p.forwardRow(x.Row(b), out.Row(b), p.argmax[b*size:(b+1)*size])
	})
	return out
}

// forwardRow pools one image, recording the argmax of each window when
// argmax is non-nil. Ties keep the first maximum in (ky, kx) order.
func (p *MaxPool2D) forwardRow(in, dst []float32, argmax []int) {
	oh, ow := p.OutH(), p.OutW()
	for c := 0; c < p.C; c++ {
		plane := c * p.H * p.W
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestIdx := plane + oy*p.K*p.W + ox*p.K
				best := in[bestIdx]
				for ky := 0; ky < p.K; ky++ {
					row := plane + (oy*p.K+ky)*p.W + ox*p.K
					for kx, v := range in[row : row+p.K] {
						if v > best {
							best = v
							bestIdx = row + kx
						}
					}
				}
				oidx := (c*oh+oy)*ow + ox
				dst[oidx] = best
				if argmax != nil {
					argmax[oidx] = bestIdx
				}
			}
		}
	}
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(grad *tensor.Matrix) *tensor.Matrix {
	size := p.OutSize()
	dx := p.buf.get(1, p.batch, p.C*p.H*p.W)
	parallel.ForEach(p.batch, rowWorkers(p.workers, dx), func(b int) {
		din := dx.Row(b)
		clear(din)
		route := p.argmax[b*size : (b+1)*size]
		for i, gv := range grad.Row(b) {
			din[route[i]] += gv
		}
	})
	return dx
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*tensor.Matrix { return nil }

// Grads implements Layer.
func (p *MaxPool2D) Grads() []*tensor.Matrix { return nil }

func (p *MaxPool2D) beginTrain(workers int) { p.workers = workers }

func (p *MaxPool2D) endTrain() {
	p.workers, p.argmax, p.batch, p.buf = 0, nil, 0, buffers{}
}
