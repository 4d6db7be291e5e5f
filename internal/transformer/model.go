package transformer

import (
	"fmt"
	"math"

	"decepticon/internal/rng"
	"decepticon/internal/tensor"
)

// P is a trainable parameter tensor paired with its gradient accumulator.
type P struct {
	V *tensor.Matrix // value
	G *tensor.Matrix // gradient (same shape)
}

// Init describes a weight initialization distribution. The default is
// BERT's dense Gaussian. TrainedInit draws a large fraction of weights
// from a near-zero component, mimicking the heavy-tailed, magnitude-
// prunable weight distributions of genuinely pre-trained transformers —
// the property behind the paper's Fig 16 result that ~90% of weights can
// be excluded from side-channel checking (see DESIGN.md §4).
type Init struct {
	Std        float64 // std of the dense component
	SparseFrac float64 // fraction of weights drawn from the near-zero component
	SparseStd  float64 // std of the near-zero component
}

// DefaultInit is BERT's initializer: N(0, 0.02).
var DefaultInit = Init{Std: 0.02}

// TrainedInit mimics a converged pre-trained transformer's weight
// distribution: most weights near zero, a heavy tail of larger ones.
var TrainedInit = Init{Std: 0.05, SparseFrac: 0.72, SparseStd: 0.0004}

func (in Init) sample(r *rng.RNG) float32 {
	if in.SparseFrac > 0 && r.Float64() < in.SparseFrac {
		return r.Normal(0, in.SparseStd)
	}
	return r.Normal(0, in.Std)
}

func newPInit(rows, cols int, in Init, r *rng.RNG) P {
	v := tensor.New(rows, cols)
	if r != nil && in.Std != 0 {
		for i := range v.Data {
			v.Data[i] = in.sample(r)
		}
	}
	return P{V: v, G: tensor.New(rows, cols)}
}

func onesP(rows, cols int) P {
	p := P{V: tensor.New(rows, cols), G: tensor.New(rows, cols)}
	for i := range p.V.Data {
		p.V.Data[i] = 1
	}
	return p
}

// Block is one encoder layer: multi-head self-attention followed by a GELU
// feed-forward network, each with a residual connection and post-layer-norm.
type Block struct {
	Wq, Wk, Wv, Wo P // Hidden×Hidden
	Bq, Bk, Bv, Bo P // 1×Hidden
	LN1G, LN1B     P // 1×Hidden
	W1, B1         P // Hidden×FFN, 1×FFN
	W2, B2         P // FFN×Hidden, 1×Hidden
	LN2G, LN2B     P // 1×Hidden

	// HeadPruned marks attention heads removed by the head-pruning
	// optimization (paper §8); pruned heads contribute nothing to the
	// attention output.
	HeadPruned []bool

	// cache holds the activations of the block's last training-path
	// forward for backward and head-importance scoring. Inference
	// forwards use a call-local cache instead, so one model can serve
	// concurrent predictions.
	cache blockCache
}

// blockCache is one block forward's saved activations.
type blockCache struct {
	x       *tensor.Matrix   // block input S×H
	q, k, v *tensor.Matrix   // S×H
	probs   []*tensor.Matrix // per head S×S attention weights
	ctx     *tensor.Matrix   // S×H concatenated head outputs
	ln1     lnCache
	ln1Out  *tensor.Matrix
	h1      *tensor.Matrix // pre-GELU S×FFN
	act     *tensor.Matrix // post-GELU S×FFN
	ln2     lnCache
}

// Model is a full transformer with a classification head.
type Model struct {
	Config
	TokEmb P // Vocab×Hidden
	PosEmb P // MaxSeq×Hidden
	Blocks []*Block
	HeadW  P // Hidden×Labels: the task-dependent last layer
	HeadB  P // 1×Labels
}

// New returns a model initialized with DefaultInit (BERT's N(0, 0.02)).
func New(cfg Config, seed uint64) *Model {
	return NewWithInit(cfg, seed, DefaultInit)
}

// NewWithInit returns a randomly initialized model with the given weight
// distribution.
func NewWithInit(cfg Config, seed uint64, init Init) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := rng.New(seed)
	none := Init{}
	// Embedding tables are dense regardless of the block-weight
	// distribution: real transformer embeddings are not magnitude-sparse,
	// and distinct tokens must be distinguishable from the start.
	embInit := Init{Std: init.Std}
	m := &Model{
		Config: cfg,
		TokEmb: newPInit(cfg.Vocab, cfg.Hidden, embInit, r.Derive("tok")),
		PosEmb: newPInit(cfg.MaxSeq, cfg.Hidden, embInit, r.Derive("pos")),
		HeadW:  newPInit(cfg.Hidden, cfg.Labels, init, r.Derive("head")),
		HeadB:  newPInit(1, cfg.Labels, none, nil),
	}
	for l := 0; l < cfg.Layers; l++ {
		br := r.Derive(fmt.Sprintf("block%d", l))
		b := &Block{
			Wq:         newPInit(cfg.Hidden, cfg.Hidden, init, br.Derive("wq")),
			Wk:         newPInit(cfg.Hidden, cfg.Hidden, init, br.Derive("wk")),
			Wv:         newPInit(cfg.Hidden, cfg.Hidden, init, br.Derive("wv")),
			Wo:         newPInit(cfg.Hidden, cfg.Hidden, init, br.Derive("wo")),
			Bq:         newPInit(1, cfg.Hidden, none, nil),
			Bk:         newPInit(1, cfg.Hidden, none, nil),
			Bv:         newPInit(1, cfg.Hidden, none, nil),
			Bo:         newPInit(1, cfg.Hidden, none, nil),
			LN1G:       onesP(1, cfg.Hidden),
			LN1B:       newPInit(1, cfg.Hidden, none, nil),
			W1:         newPInit(cfg.Hidden, cfg.FFN, init, br.Derive("w1")),
			B1:         newPInit(1, cfg.FFN, none, nil),
			W2:         newPInit(cfg.FFN, cfg.Hidden, init, br.Derive("w2")),
			B2:         newPInit(1, cfg.Hidden, none, nil),
			LN2G:       onesP(1, cfg.Hidden),
			LN2B:       newPInit(1, cfg.Hidden, none, nil),
			HeadPruned: make([]bool, cfg.Heads),
		}
		m.Blocks = append(m.Blocks, b)
	}
	return m
}

// ---- layer norm ----

type lnCache struct {
	xhat   *tensor.Matrix
	invStd []float32
}

const lnEps = 1e-5

func layerNormForward(x *tensor.Matrix, g, b []float32) (*tensor.Matrix, lnCache) {
	out := tensor.New(x.Rows, x.Cols)
	cache := lnCache{xhat: tensor.New(x.Rows, x.Cols), invStd: make([]float32, x.Rows)}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		var mean float32
		for _, v := range row {
			mean += v
		}
		mean /= float32(len(row))
		var variance float32
		for _, v := range row {
			d := v - mean
			variance += d * d
		}
		variance /= float32(len(row))
		inv := 1 / float32(math.Sqrt(float64(variance)+lnEps))
		cache.invStd[i] = inv
		xh := cache.xhat.Row(i)
		orow := out.Row(i)
		for j, v := range row {
			xh[j] = (v - mean) * inv
			orow[j] = xh[j]*g[j] + b[j]
		}
	}
	return out, cache
}

// layerNormBackward consumes dOut and returns dX, accumulating dG and dB.
func layerNormBackward(dOut *tensor.Matrix, cache lnCache, g, dG, dB []float32) *tensor.Matrix {
	dx := tensor.New(dOut.Rows, dOut.Cols)
	n := float32(dOut.Cols)
	for i := 0; i < dOut.Rows; i++ {
		dy := dOut.Row(i)
		xh := cache.xhat.Row(i)
		inv := cache.invStd[i]
		var sumDxhat, sumDxhatXhat float32
		dxhat := make([]float32, len(dy))
		for j := range dy {
			dG[j] += dy[j] * xh[j]
			dB[j] += dy[j]
			dxhat[j] = dy[j] * g[j]
			sumDxhat += dxhat[j]
			sumDxhatXhat += dxhat[j] * xh[j]
		}
		drow := dx.Row(i)
		for j := range dy {
			drow[j] = inv * (dxhat[j] - sumDxhat/n - xh[j]*sumDxhatXhat/n)
		}
	}
	return dx
}

// ---- block forward / backward ----

// headSlice copies head h's columns of m (S×Hidden) into an S×headDim matrix.
func headSlice(m *tensor.Matrix, h, headDim int) *tensor.Matrix {
	out := tensor.New(m.Rows, headDim)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[h*headDim:(h+1)*headDim])
	}
	return out
}

// addHeadSlice adds src (S×headDim) into head h's columns of dst.
func addHeadSlice(dst, src *tensor.Matrix, h, headDim int) {
	for i := 0; i < dst.Rows; i++ {
		d := dst.Row(i)[h*headDim : (h+1)*headDim]
		s := src.Row(i)
		for j := range d {
			d[j] += s[j]
		}
	}
}

// causalMaskValue is added to masked (future) attention scores; after the
// softmax those positions carry effectively zero weight.
const causalMaskValue = -1e9

// forward runs the block on x, saving its activations in c.
func (b *Block) forward(x *tensor.Matrix, heads, headDim int, causal bool, c *blockCache) *tensor.Matrix {
	c.x = x
	c.q = tensor.MatMul(x, b.Wq.V)
	c.q.AddRowVector(b.Bq.V.Data)
	c.k = tensor.MatMul(x, b.Wk.V)
	c.k.AddRowVector(b.Bk.V.Data)
	c.v = tensor.MatMul(x, b.Wv.V)
	c.v.AddRowVector(b.Bv.V.Data)

	scale := float32(1 / math.Sqrt(float64(headDim)))
	c.probs = make([]*tensor.Matrix, heads)
	c.ctx = tensor.New(x.Rows, heads*headDim)
	for h := 0; h < heads; h++ {
		if b.HeadPruned[h] {
			continue
		}
		qh := headSlice(c.q, h, headDim)
		kh := headSlice(c.k, h, headDim)
		vh := headSlice(c.v, h, headDim)
		scores := tensor.MatMulNT(qh, kh).Scale(scale)
		if causal {
			for i := 0; i < scores.Rows; i++ {
				row := scores.Row(i)
				for j := i + 1; j < len(row); j++ {
					row[j] += causalMaskValue
				}
			}
		}
		probs := tensor.SoftmaxRows(scores)
		c.probs[h] = probs
		ctxH := tensor.MatMul(probs, vh)
		addHeadSlice(c.ctx, ctxH, h, headDim)
	}

	attnOut := tensor.MatMul(c.ctx, b.Wo.V)
	attnOut.AddRowVector(b.Bo.V.Data)
	res1 := tensor.Add(x, attnOut)
	var ln1Out *tensor.Matrix
	ln1Out, c.ln1 = layerNormForward(res1, b.LN1G.V.Data, b.LN1B.V.Data)
	c.ln1Out = ln1Out

	c.h1 = tensor.MatMul(ln1Out, b.W1.V)
	c.h1.AddRowVector(b.B1.V.Data)
	c.act = tensor.GELU(c.h1)
	ffnOut := tensor.MatMul(c.act, b.W2.V)
	ffnOut.AddRowVector(b.B2.V.Data)
	res2 := tensor.Add(ln1Out, ffnOut)
	out, ln2 := layerNormForward(res2, b.LN2G.V.Data, b.LN2B.V.Data)
	c.ln2 = ln2
	return out
}

func accumBias(p P, grad *tensor.Matrix) {
	s := grad.SumRows()
	for i := range s {
		p.G.Data[i] += s[i]
	}
}

func (b *Block) backward(dOut *tensor.Matrix, heads, headDim int) *tensor.Matrix {
	c := &b.cache
	// LN2 -> residual(ln1Out, ffnOut)
	dRes2 := layerNormBackward(dOut, c.ln2, b.LN2G.V.Data, b.LN2G.G.Data, b.LN2B.G.Data)
	// ffnOut = act W2 + b2
	accumBias(b.B2, dRes2)
	tensor.AddInPlace(b.W2.G, tensor.MatMulTN(c.act, dRes2))
	dAct := tensor.MatMulNT(dRes2, b.W2.V)
	dH1 := tensor.Hadamard(dAct, tensor.GELUGrad(c.h1))
	accumBias(b.B1, dH1)
	tensor.AddInPlace(b.W1.G, tensor.MatMulTN(c.ln1Out, dH1))
	dLn1 := tensor.MatMulNT(dH1, b.W1.V)
	tensor.AddInPlace(dLn1, dRes2) // residual path

	dRes1 := layerNormBackward(dLn1, c.ln1, b.LN1G.V.Data, b.LN1G.G.Data, b.LN1B.G.Data)
	// attnOut = ctx Wo + bo
	accumBias(b.Bo, dRes1)
	tensor.AddInPlace(b.Wo.G, tensor.MatMulTN(c.ctx, dRes1))
	dCtx := tensor.MatMulNT(dRes1, b.Wo.V)

	scale := float32(1 / math.Sqrt(float64(headDim)))
	dQ := tensor.New(c.q.Rows, c.q.Cols)
	dK := tensor.New(c.k.Rows, c.k.Cols)
	dV := tensor.New(c.v.Rows, c.v.Cols)
	for h := 0; h < heads; h++ {
		if b.HeadPruned[h] {
			continue
		}
		probs := c.probs[h]
		kh := headSlice(c.k, h, headDim)
		vh := headSlice(c.v, h, headDim)
		qh := headSlice(c.q, h, headDim)
		dCtxH := headSlice(dCtx, h, headDim)

		dProbs := tensor.MatMulNT(dCtxH, vh)
		dVh := tensor.MatMulTN(probs, dCtxH)
		// softmax backward per row: dS = P ⊙ (dP - rowSum(dP⊙P))
		dScores := tensor.New(probs.Rows, probs.Cols)
		for i := 0; i < probs.Rows; i++ {
			p := probs.Row(i)
			dp := dProbs.Row(i)
			var dot float32
			for j := range p {
				dot += dp[j] * p[j]
			}
			ds := dScores.Row(i)
			for j := range p {
				ds[j] = p[j] * (dp[j] - dot)
			}
		}
		dScores.Scale(scale)
		dQh := tensor.MatMul(dScores, kh)
		dKh := tensor.MatMulTN(dScores, qh)
		addHeadSlice(dQ, dQh, h, headDim)
		addHeadSlice(dK, dKh, h, headDim)
		addHeadSlice(dV, dVh, h, headDim)
	}

	accumBias(b.Bq, dQ)
	accumBias(b.Bk, dK)
	accumBias(b.Bv, dV)
	tensor.AddInPlace(b.Wq.G, tensor.MatMulTN(c.x, dQ))
	tensor.AddInPlace(b.Wk.G, tensor.MatMulTN(c.x, dK))
	tensor.AddInPlace(b.Wv.G, tensor.MatMulTN(c.x, dV))

	dx := tensor.MatMulNT(dQ, b.Wq.V)
	tensor.AddInPlace(dx, tensor.MatMulNT(dK, b.Wk.V))
	tensor.AddInPlace(dx, tensor.MatMulNT(dV, b.Wv.V))
	tensor.AddInPlace(dx, dRes1) // residual path
	return dx
}

// ---- model forward / backward ----

// embed returns the token+position embedding matrix for tokens.
func (m *Model) embed(tokens []int) *tensor.Matrix {
	if len(tokens) == 0 || len(tokens) > m.MaxSeq {
		panic(fmt.Sprintf("transformer: sequence length %d out of (0,%d]", len(tokens), m.MaxSeq))
	}
	x := tensor.New(len(tokens), m.Hidden)
	for i, tok := range tokens {
		if tok < 0 || tok >= m.Vocab {
			panic(fmt.Sprintf("transformer: token %d out of vocab %d", tok, m.Vocab))
		}
		row := x.Row(i)
		te := m.TokEmb.V.Row(tok)
		pe := m.PosEmb.V.Row(i)
		for j := range row {
			row[j] = te[j] + pe[j]
		}
	}
	return x
}

// pool mean-pools the final block output over sequence positions — the
// classifier's sentence representation.
func (m *Model) pool(acts *tensor.Matrix) []float32 {
	pooled := make([]float32, m.Hidden)
	inv := 1 / float32(acts.Rows)
	for i := 0; i < acts.Rows; i++ {
		row := acts.Row(i)
		for j := range pooled {
			pooled[j] += row[j] * inv
		}
	}
	return pooled
}

func (m *Model) headLogits(pooled []float32) []float32 {
	logits := make([]float32, m.Labels)
	for j := 0; j < m.Labels; j++ {
		s := m.HeadB.V.Data[j]
		for i, v := range pooled {
			s += v * m.HeadW.V.At(i, j)
		}
		logits[j] = s
	}
	return logits
}

// Logits runs a forward pass and returns the classification logits. It
// writes no model state, so concurrent calls on one model are safe.
func (m *Model) Logits(tokens []int) []float32 {
	x := m.embed(tokens)
	var c blockCache
	for _, b := range m.Blocks {
		x = b.forward(x, m.Heads, m.HeadDim(), m.Causal, &c)
	}
	return m.headLogits(m.pool(x))
}

// forwardCached runs embed and every block, saving each block's
// activations in its own cache for backward or head scoring, and
// returns the final block output. Not safe for concurrent use.
func (m *Model) forwardCached(tokens []int) *tensor.Matrix {
	x := m.embed(tokens)
	for _, b := range m.Blocks {
		x = b.forward(x, m.Heads, m.HeadDim(), m.Causal, &b.cache)
	}
	return x
}

// Predict returns the argmax class for tokens.
func (m *Model) Predict(tokens []int) int {
	logits := m.Logits(tokens)
	best := 0
	for i := range logits {
		if logits[i] > logits[best] {
			best = i
		}
	}
	return best
}

// Probs returns the softmax class distribution for tokens.
func (m *Model) Probs(tokens []int) []float32 {
	logits := m.Logits(tokens)
	mx := tensor.FromSlice(1, len(logits), logits)
	return tensor.SoftmaxRows(mx).Row(0)
}

// LossAndBackward computes the cross-entropy loss of tokens against label,
// accumulates parameter gradients, and returns the loss together with the
// gradient of the loss with respect to the embedding output (used by the
// adversarial attack to rank token substitutions).
func (m *Model) LossAndBackward(tokens []int, label int) (float64, *tensor.Matrix) {
	if label < 0 || label >= m.Labels {
		panic(fmt.Sprintf("transformer: label %d out of range [0,%d)", label, m.Labels))
	}
	// Forward (re-runs embed + blocks so caches are fresh).
	acts := m.forwardCached(tokens)
	pooled := m.pool(acts)
	logits := m.headLogits(pooled)
	probs := tensor.SoftmaxRows(tensor.FromSlice(1, len(logits), logits)).Row(0)
	p := probs[label]
	if p < 1e-12 {
		p = 1e-12
	}
	loss := -math.Log(float64(p))

	// Head backward.
	dLogits := make([]float32, m.Labels)
	copy(dLogits, probs)
	dLogits[label] -= 1
	for j := 0; j < m.Labels; j++ {
		m.HeadB.G.Data[j] += dLogits[j]
		for i := 0; i < m.Hidden; i++ {
			m.HeadW.G.Data[i*m.Labels+j] += pooled[i] * dLogits[j]
		}
	}
	// Mean pooling distributes the pooled gradient evenly over positions.
	dPooled := make([]float32, m.Hidden)
	for i := 0; i < m.Hidden; i++ {
		var s float32
		for j := 0; j < m.Labels; j++ {
			s += m.HeadW.V.At(i, j) * dLogits[j]
		}
		dPooled[i] = s / float32(acts.Rows)
	}
	dActs := tensor.New(acts.Rows, acts.Cols)
	for i := 0; i < acts.Rows; i++ {
		copy(dActs.Row(i), dPooled)
	}

	for l := len(m.Blocks) - 1; l >= 0; l-- {
		dActs = m.Blocks[l].backward(dActs, m.Heads, m.HeadDim())
	}

	// Embedding gradients.
	for i, tok := range tokens {
		g := dActs.Row(i)
		te := m.TokEmb.G.Row(tok)
		pe := m.PosEmb.G.Row(i)
		for j := range g {
			te[j] += g[j]
			pe[j] += g[j]
		}
	}
	return loss, dActs
}
