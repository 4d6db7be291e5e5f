package nn

import (
	"fmt"
	"math"
	"testing"

	"decepticon/internal/rng"
	"decepticon/internal/tensor"
)

// The reference kernels below are the direct convolution, pooling and
// ReLU loops the layers were first written as. The tests pin the
// optimized layers to them bit for bit: a re-ordered accumulation, a
// dropped zero-skip or a per-worker partial sum would flip low bits and
// fail here.

// refPad copies a batch into its zero-padded layout.
func refPad(c *Conv2D, x *tensor.Matrix) *tensor.Matrix {
	if c.Pad == 0 {
		return x
	}
	ph, pw := c.padH(), c.padW()
	out := tensor.New(x.Rows, c.InC*ph*pw)
	for b := 0; b < x.Rows; b++ {
		src, dst := x.Row(b), out.Row(b)
		for ic := 0; ic < c.InC; ic++ {
			for y := 0; y < c.H; y++ {
				srcOff := ic*c.H*c.W + y*c.W
				dstOff := ic*ph*pw + (y+c.Pad)*pw + c.Pad
				copy(dst[dstOff:dstOff+c.W], src[srcOff:srcOff+c.W])
			}
		}
	}
	return out
}

// refConvForward is the direct 7-deep forward loop.
func refConvForward(c *Conv2D, x *tensor.Matrix) *tensor.Matrix {
	xp := refPad(c, x)
	ph, pw := c.padH(), c.padW()
	oh, ow := c.OutH(), c.OutW()
	out := tensor.New(x.Rows, c.OutSize())
	for b := 0; b < x.Rows; b++ {
		in := xp.Row(b)
		dst := out.Row(b)
		for oc := 0; oc < c.OutC; oc++ {
			w := c.Weight.Row(oc)
			bias := c.Bias.Data[oc]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := bias
					wi := 0
					for ic := 0; ic < c.InC; ic++ {
						plane := in[ic*ph*pw:]
						for ky := 0; ky < c.K; ky++ {
							rowOff := (oy+ky)*pw + ox
							for kx := 0; kx < c.K; kx++ {
								s += w[wi] * plane[rowOff+kx]
								wi++
							}
						}
					}
					dst[(oc*oh+oy)*ow+ox] = s
				}
			}
		}
	}
	return out
}

// refConvBackward is the direct backward loop: it accumulates into dW
// and dB and returns the (cropped) input gradient.
func refConvBackward(c *Conv2D, x, grad, dW, dB *tensor.Matrix) *tensor.Matrix {
	xp := refPad(c, x)
	ph, pw := c.padH(), c.padW()
	oh, ow := c.OutH(), c.OutW()
	dxp := tensor.New(x.Rows, c.InC*ph*pw)
	for b := 0; b < x.Rows; b++ {
		in := xp.Row(b)
		din := dxp.Row(b)
		g := grad.Row(b)
		for oc := 0; oc < c.OutC; oc++ {
			w := c.Weight.Row(oc)
			dw := dW.Row(oc)
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gv := g[(oc*oh+oy)*ow+ox]
					if gv == 0 {
						continue
					}
					dB.Data[oc] += gv
					wi := 0
					for ic := 0; ic < c.InC; ic++ {
						off := ic * ph * pw
						for ky := 0; ky < c.K; ky++ {
							rowOff := off + (oy+ky)*pw + ox
							for kx := 0; kx < c.K; kx++ {
								dw[wi] += gv * in[rowOff+kx]
								din[rowOff+kx] += gv * w[wi]
								wi++
							}
						}
					}
				}
			}
		}
	}
	if c.Pad == 0 {
		return dxp
	}
	out := tensor.New(x.Rows, c.InC*c.H*c.W)
	for b := 0; b < x.Rows; b++ {
		src, dst := dxp.Row(b), out.Row(b)
		for ic := 0; ic < c.InC; ic++ {
			for y := 0; y < c.H; y++ {
				srcOff := ic*ph*pw + (y+c.Pad)*pw + c.Pad
				dstOff := ic*c.H*c.W + y*c.W
				copy(dst[dstOff:dstOff+c.W], src[srcOff:srcOff+c.W])
			}
		}
	}
	return out
}

// refPool is the direct max-pool forward (with routing) and backward.
func refPoolForward(p *MaxPool2D, x *tensor.Matrix) (*tensor.Matrix, []int) {
	oh, ow := p.OutH(), p.OutW()
	out := tensor.New(x.Rows, p.OutSize())
	argmax := make([]int, x.Rows*p.OutSize())
	for b := 0; b < x.Rows; b++ {
		in, dst := x.Row(b), out.Row(b)
		for c := 0; c < p.C; c++ {
			plane := c * p.H * p.W
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := plane + oy*p.K*p.W + ox*p.K
					best := in[bestIdx]
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							idx := plane + (oy*p.K+ky)*p.W + ox*p.K + kx
							if in[idx] > best {
								best = in[idx]
								bestIdx = idx
							}
						}
					}
					oidx := (c*oh+oy)*ow + ox
					dst[oidx] = best
					argmax[b*p.OutSize()+oidx] = bestIdx
				}
			}
		}
	}
	return out, argmax
}

func refPoolBackward(p *MaxPool2D, argmax []int, grad *tensor.Matrix) *tensor.Matrix {
	dx := tensor.New(grad.Rows, p.C*p.H*p.W)
	for b := 0; b < grad.Rows; b++ {
		g, din := grad.Row(b), dx.Row(b)
		for i, gv := range g {
			din[argmax[b*p.OutSize()+i]] += gv
		}
	}
	return dx
}

// assertBits fails unless a and b hold the same float32 bit patterns.
func assertBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#08x), want %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// sparseGrad draws a gradient in which a fraction zeroFrac of the cells
// are zero — 15/16 mimics the gradient behind a 4×4 max-pool — and a few
// of the rest are negative zero, which the zero-skip must also skip.
func sparseGrad(rows, cols int, zeroFrac float64, r *rng.RNG) *tensor.Matrix {
	g := tensor.Randn(rows, cols, 0.1, r)
	negZero := float32(math.Copysign(0, -1))
	for i := range g.Data {
		switch u := r.Float64(); {
		case u < zeroFrac:
			g.Data[i] = 0
		case u < zeroFrac+0.01:
			g.Data[i] = negZero
		}
	}
	return g
}

func TestConvBitIdenticalToDirectLoops(t *testing.T) {
	shapes := []struct {
		name                    string
		inC, outC, k, h, w, pad int
		batch                   int
		zeroFrac                float64
	}{
		{"classifier-conv1", 1, 6, 5, 64, 64, 0, 16, 15.0 / 16},
		{"classifier-conv1-b1", 1, 6, 5, 64, 64, 0, 1, 15.0 / 16},
		{"classifier-conv2", 6, 16, 4, 15, 15, 0, 16, 15.0 / 16},
		{"classifier-conv2-dense-grad", 6, 16, 4, 15, 15, 0, 16, 0},
		{"classifier32-conv1", 1, 6, 5, 32, 32, 0, 5, 15.0 / 16},
		{"cnnmodel-stem", 1, 8, 3, 16, 16, 1, 8, 0.5},
		{"cnnmodel-block", 8, 8, 3, 8, 8, 1, 8, 0},
		{"cnnmodel-block-b1", 8, 8, 3, 4, 4, 1, 1, 0.5},
		{"odd-k7", 2, 3, 7, 12, 11, 0, 3, 0.5},
		{"odd-k1", 3, 2, 1, 5, 5, 0, 2, 0},
		{"k2-padded", 2, 3, 2, 6, 7, 2, 4, 15.0 / 16},
		// An all-zero gradient onto negative-zero accumulators: only the
		// zero-skip keeps them at -0 (adding +0 would flip the sign).
		{"all-zero-grad", 1, 6, 5, 16, 16, 0, 4, 1},
	}
	for _, tc := range shapes {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, workers), func(t *testing.T) {
				r := rng.New(uint64(tc.inC*1000 + tc.k*10 + tc.batch))
				c := NewConv2DPadded(tc.inC, tc.outC, tc.k, tc.h, tc.w, tc.pad, r.Derive("conv"))
				for i := range c.Bias.Data {
					c.Bias.Data[i] = float32(r.NormFloat64() * 0.1)
				}
				x := tensor.Randn(tc.batch, tc.inC*tc.h*tc.w, 1, r.Derive("x"))
				for i := 0; i < len(x.Data); i += 7 {
					x.Data[i] = 0 // rendered trace images are mostly exact zeros
				}
				grad := sparseGrad(tc.batch, c.OutSize(), tc.zeroFrac, r.Derive("g"))
				// Gradients accumulate onto whatever the layer already
				// holds; start both sides from the same non-zero values.
				prevW := tensor.Randn(c.dWeight.Rows, c.dWeight.Cols, 0.01, r.Derive("dw"))
				prevB := tensor.Randn(1, c.OutC, 0.01, r.Derive("db"))
				if tc.zeroFrac == 1 {
					negZero := float32(math.Copysign(0, -1))
					for _, m := range []*tensor.Matrix{prevW, prevB} {
						for i := range m.Data {
							m.Data[i] = negZero
						}
					}
				}
				c.dWeight.CopyFrom(prevW)
				c.dBias.CopyFrom(prevB)

				wantOut := refConvForward(c, x)
				wantDW, wantDB := prevW.Clone(), prevB.Clone()
				wantDX := refConvBackward(c, x, grad, wantDW, wantDB)

				assertBits(t, "eval forward", c.Forward(x, false).Data, wantOut.Data)
				c.beginTrain(workers)
				defer c.endTrain()
				// Two train steps through the same scratch buffers: the
				// second must not see leftovers of the first.
				for step := 0; step < 2; step++ {
					c.dWeight.CopyFrom(prevW)
					c.dBias.CopyFrom(prevB)
					assertBits(t, "train forward", c.Forward(x, true).Data, wantOut.Data)
					dx := c.Backward(grad)
					assertBits(t, "dX", dx.Data, wantDX.Data)
					assertBits(t, "dW", c.dWeight.Data, wantDW.Data)
					assertBits(t, "dB", c.dBias.Data, wantDB.Data)
				}
				// The first-layer path accumulates the same dW/dB alone.
				c.dWeight.CopyFrom(prevW)
				c.dBias.CopyFrom(prevB)
				c.Forward(x, true)
				c.backwardParams(grad)
				assertBits(t, "params-only dW", c.dWeight.Data, wantDW.Data)
				assertBits(t, "params-only dB", c.dBias.Data, wantDB.Data)
			})
		}
	}
}

func TestConvScratchSurvivesBatchResize(t *testing.T) {
	// Fit's last batch is usually short: a padded layer's reused input
	// scratch must keep a zero border across shrink and regrow.
	r := rng.New(11)
	c := NewConv2DPadded(2, 3, 3, 6, 6, 1, r)
	c.beginTrain(2)
	defer c.endTrain()
	for _, rows := range []int{4, 1, 3, 4} {
		x := tensor.Randn(rows, 72, 1, r)
		assertBits(t, fmt.Sprintf("rows=%d", rows), c.Forward(x, true).Data, refConvForward(c, x).Data)
	}
}

func TestPoolAndReLUBitIdenticalToDirectLoops(t *testing.T) {
	r := rng.New(12)
	for _, workers := range []int{1, 3} {
		for _, rows := range []int{16, 1} {
			p := NewMaxPool2D(6, 60, 60, 4)
			relu := NewReLU()
			x := tensor.Randn(rows, 6*60*60, 1, r)
			for i := 0; i < len(x.Data); i += 5 {
				x.Data[i] = 0 // ties inside a window: first max wins
			}
			grad := tensor.Randn(rows, p.OutSize(), 1, r)
			wantPool, argmax := refPoolForward(p, x)
			wantPoolDX := refPoolBackward(p, argmax, grad)
			wantReLU := tensor.ReLU(x)
			reluGrad := tensor.Randn(rows, x.Cols, 1, r)
			wantReLUDX := tensor.Hadamard(reluGrad, tensor.ReLUGradMask(x))

			p.beginTrain(workers)
			relu.beginTrain(workers)
			for step := 0; step < 2; step++ {
				assertBits(t, "pool forward", p.Forward(x, true).Data, wantPool.Data)
				assertBits(t, "pool backward", p.Backward(grad).Data, wantPoolDX.Data)
				assertBits(t, "relu forward", relu.Forward(x, true).Data, wantReLU.Data)
				assertBits(t, "relu backward", relu.Backward(reluGrad).Data, wantReLUDX.Data)
			}
			assertBits(t, "pool eval", p.Forward(x, false).Data, wantPool.Data)
			p.endTrain()
			relu.endTrain()
		}
	}
}
