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
}

// blockCache is one block's workspace: the activations its last forward
// saved for backward and head-importance scoring, and the scratch its
// backward writes. Every buffer is recycled with Reuse, so a warmed cache
// runs forward and backward without allocating.
type blockCache struct {
	x          *tensor.Matrix   // block input S×H (owned by the caller)
	q, k, v    *tensor.Matrix   // S×H
	qh, kh, vh []*tensor.Matrix // per head S×headDim copies of q, k, v
	probs      []*tensor.Matrix // per head S×S attention weights
	ctxH       *tensor.Matrix   // one head's S×headDim output
	ctx        *tensor.Matrix   // S×H concatenated head outputs
	res1       *tensor.Matrix   // x + attention output
	ln1        lnCache
	ln1Out     *tensor.Matrix
	h1         *tensor.Matrix // pre-GELU S×FFN
	act        *tensor.Matrix // post-GELU S×FFN
	res2       *tensor.Matrix // ln1Out + FFN output
	ln2        lnCache
	out        *tensor.Matrix // block output S×H

	// Backward scratch.
	dRes2, geluGrad, dH1, dLn1, dRes1, dCtx *tensor.Matrix
	dQ, dK, dV, dx, dxTerm                  *tensor.Matrix
	dCtxH, dProbs, dQh, dKh, dVh            *tensor.Matrix
	biasSum                                 []float32
}

// workspace is a model's training-path scratch: one blockCache per block
// plus the embedding, pooling and head buffers of LossAndBackward.
// Train drops it on return, so a trained population does not keep one
// per model.
type workspace struct {
	blocks          []blockCache
	emb, dActs      *tensor.Matrix
	logits, probs   *tensor.Matrix // 1×Labels
	pooled, dPooled []float32
	dLogits         []float32
}

// reuseSlice returns s resized to n, reallocating only when its capacity
// is too small. The contents are unspecified.
func reuseSlice(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

// Model is a full transformer with a classification head.
type Model struct {
	Config
	TokEmb P // Vocab×Hidden
	PosEmb P // MaxSeq×Hidden
	Blocks []*Block
	HeadW  P // Hidden×Labels: the task-dependent last layer
	HeadB  P // 1×Labels

	ws *workspace // training-path scratch; nil until first needed
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
	dxhat  []float32 // backward row scratch
}

const lnEps = 1e-5

// layerNormForward normalizes each row of x into dst (resized with Reuse),
// saving what backward needs in cache, and returns dst.
func layerNormForward(dst, x *tensor.Matrix, g, b []float32, cache *lnCache) *tensor.Matrix {
	out := dst.Reuse(x.Rows, x.Cols)
	cache.xhat = cache.xhat.Reuse(x.Rows, x.Cols)
	cache.invStd = reuseSlice(cache.invStd, x.Rows)
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
	return out
}

// layerNormBackward consumes dOut and writes dX into dst (resized with
// Reuse), accumulating dG and dB, and returns dst.
func layerNormBackward(dst, dOut *tensor.Matrix, cache *lnCache, g, dG, dB []float32) *tensor.Matrix {
	dx := dst.Reuse(dOut.Rows, dOut.Cols)
	n := float32(dOut.Cols)
	cache.dxhat = reuseSlice(cache.dxhat, dOut.Cols)
	dxhat := cache.dxhat
	for i := 0; i < dOut.Rows; i++ {
		dy := dOut.Row(i)
		xh := cache.xhat.Row(i)
		inv := cache.invStd[i]
		var sumDxhat, sumDxhatXhat float32
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

// headSlice copies head h's columns of m (S×Hidden) into dst, resized to
// S×headDim with Reuse, and returns it.
func headSlice(dst, m *tensor.Matrix, h, headDim int) *tensor.Matrix {
	out := dst.Reuse(m.Rows, headDim)
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

// zeroed returns m resized with Reuse and cleared: the target of
// addHeadSlice, whose pruned-head columns must read zero.
func zeroed(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	m = m.Reuse(rows, cols)
	m.Zero()
	return m
}

// causalMaskValue is added to masked (future) attention scores; after the
// softmax those positions carry effectively zero weight.
const causalMaskValue = -1e9

// forward runs the block on x, saving its activations in c, and returns
// the block output, which lives in c until c's next forward.
func (b *Block) forward(x *tensor.Matrix, heads, headDim int, causal bool, c *blockCache) *tensor.Matrix {
	c.x = x
	c.q = tensor.MatMulInto(c.q, x, b.Wq.V)
	c.q.AddRowVector(b.Bq.V.Data)
	c.k = tensor.MatMulInto(c.k, x, b.Wk.V)
	c.k.AddRowVector(b.Bk.V.Data)
	c.v = tensor.MatMulInto(c.v, x, b.Wv.V)
	c.v.AddRowVector(b.Bv.V.Data)

	scale := float32(1 / math.Sqrt(float64(headDim)))
	if len(c.probs) != heads {
		c.qh = make([]*tensor.Matrix, heads)
		c.kh = make([]*tensor.Matrix, heads)
		c.vh = make([]*tensor.Matrix, heads)
		c.probs = make([]*tensor.Matrix, heads)
	}
	c.ctx = zeroed(c.ctx, x.Rows, heads*headDim)
	for h := 0; h < heads; h++ {
		if b.HeadPruned[h] {
			continue
		}
		c.qh[h] = headSlice(c.qh[h], c.q, h, headDim)
		c.kh[h] = headSlice(c.kh[h], c.k, h, headDim)
		c.vh[h] = headSlice(c.vh[h], c.v, h, headDim)
		scores := tensor.MatMulNTInto(c.probs[h], c.qh[h], c.kh[h]).Scale(scale)
		if causal {
			for i := 0; i < scores.Rows; i++ {
				row := scores.Row(i)
				for j := i + 1; j < len(row); j++ {
					row[j] += causalMaskValue
				}
			}
		}
		c.probs[h] = tensor.SoftmaxRowsInto(scores, scores)
		c.ctxH = tensor.MatMulInto(c.ctxH, c.probs[h], c.vh[h])
		addHeadSlice(c.ctx, c.ctxH, h, headDim)
	}

	c.res1 = tensor.MatMulInto(c.res1, c.ctx, b.Wo.V)
	c.res1.AddRowVector(b.Bo.V.Data)
	c.res1 = tensor.AddInto(c.res1, x, c.res1)
	c.ln1Out = layerNormForward(c.ln1Out, c.res1, b.LN1G.V.Data, b.LN1B.V.Data, &c.ln1)

	c.h1 = tensor.MatMulInto(c.h1, c.ln1Out, b.W1.V)
	c.h1.AddRowVector(b.B1.V.Data)
	c.act = tensor.GELUInto(c.act, c.h1)
	c.res2 = tensor.MatMulInto(c.res2, c.act, b.W2.V)
	c.res2.AddRowVector(b.B2.V.Data)
	c.res2 = tensor.AddInto(c.res2, c.ln1Out, c.res2)
	c.out = layerNormForward(c.out, c.res2, b.LN2G.V.Data, b.LN2B.V.Data, &c.ln2)
	return c.out
}

// accumBias adds grad's column sums to p's gradient, summing into c's
// scratch first so the rounding matches adding SumRows' result.
func (c *blockCache) accumBias(p P, grad *tensor.Matrix) {
	c.biasSum = reuseSlice(c.biasSum, grad.Cols)
	s := grad.SumRowsInto(c.biasSum)
	for i := range s {
		p.G.Data[i] += s[i]
	}
}

// backward consumes dOut and the activations c saved, accumulates the
// block's parameter gradients, and returns dx, which lives in c until
// c's next backward. Every gradient takes its terms in the same order
// as the allocating formulation (AddInPlace of fresh products), so the
// results are bit-identical to it.
func (b *Block) backward(dOut *tensor.Matrix, heads, headDim int, c *blockCache) *tensor.Matrix {
	// LN2 -> residual(ln1Out, ffnOut)
	c.dRes2 = layerNormBackward(c.dRes2, dOut, &c.ln2, b.LN2G.V.Data, b.LN2G.G.Data, b.LN2B.G.Data)
	// ffnOut = act W2 + b2
	c.accumBias(b.B2, c.dRes2)
	tensor.AddMatMulTN(b.W2.G, c.act, c.dRes2)
	c.dH1 = tensor.MatMulNTInto(c.dH1, c.dRes2, b.W2.V) // dAct
	c.geluGrad = tensor.GELUGradInto(c.geluGrad, c.h1)
	c.dH1 = tensor.HadamardInto(c.dH1, c.dH1, c.geluGrad)
	c.accumBias(b.B1, c.dH1)
	tensor.AddMatMulTN(b.W1.G, c.ln1Out, c.dH1)
	c.dLn1 = tensor.MatMulNTInto(c.dLn1, c.dH1, b.W1.V)
	tensor.AddInPlace(c.dLn1, c.dRes2) // residual path

	c.dRes1 = layerNormBackward(c.dRes1, c.dLn1, &c.ln1, b.LN1G.V.Data, b.LN1G.G.Data, b.LN1B.G.Data)
	// attnOut = ctx Wo + bo
	c.accumBias(b.Bo, c.dRes1)
	tensor.AddMatMulTN(b.Wo.G, c.ctx, c.dRes1)
	c.dCtx = tensor.MatMulNTInto(c.dCtx, c.dRes1, b.Wo.V)

	scale := float32(1 / math.Sqrt(float64(headDim)))
	rows, cols := c.q.Rows, c.q.Cols
	c.dQ = zeroed(c.dQ, rows, cols)
	c.dK = zeroed(c.dK, rows, cols)
	c.dV = zeroed(c.dV, rows, cols)
	for h := 0; h < heads; h++ {
		if b.HeadPruned[h] {
			continue
		}
		probs := c.probs[h]
		c.dCtxH = headSlice(c.dCtxH, c.dCtx, h, headDim)
		c.dProbs = tensor.MatMulNTInto(c.dProbs, c.dCtxH, c.vh[h])
		c.dVh = tensor.MatMulTNInto(c.dVh, probs, c.dCtxH)
		// softmax backward per row, in place: dS = P ⊙ (dP - rowSum(dP⊙P))
		for i := 0; i < probs.Rows; i++ {
			p := probs.Row(i)
			dp := c.dProbs.Row(i)
			var dot float32
			for j := range p {
				dot += dp[j] * p[j]
			}
			for j := range p {
				dp[j] = p[j] * (dp[j] - dot)
			}
		}
		dScores := c.dProbs.Scale(scale)
		c.dQh = tensor.MatMulInto(c.dQh, dScores, c.kh[h])
		c.dKh = tensor.MatMulTNInto(c.dKh, dScores, c.qh[h])
		addHeadSlice(c.dQ, c.dQh, h, headDim)
		addHeadSlice(c.dK, c.dKh, h, headDim)
		addHeadSlice(c.dV, c.dVh, h, headDim)
	}

	c.accumBias(b.Bq, c.dQ)
	c.accumBias(b.Bk, c.dK)
	c.accumBias(b.Bv, c.dV)
	tensor.AddMatMulTN(b.Wq.G, c.x, c.dQ)
	tensor.AddMatMulTN(b.Wk.G, c.x, c.dK)
	tensor.AddMatMulTN(b.Wv.G, c.x, c.dV)

	c.dx = tensor.MatMulNTInto(c.dx, c.dQ, b.Wq.V)
	c.dxTerm = tensor.MatMulNTInto(c.dxTerm, c.dK, b.Wk.V)
	tensor.AddInPlace(c.dx, c.dxTerm)
	c.dxTerm = tensor.MatMulNTInto(c.dxTerm, c.dV, b.Wv.V)
	tensor.AddInPlace(c.dx, c.dxTerm)
	tensor.AddInPlace(c.dx, c.dRes1) // residual path
	return c.dx
}

// ---- model forward / backward ----

// embed writes the token+position embedding matrix for tokens into dst
// (resized with Reuse) and returns it.
func (m *Model) embed(dst *tensor.Matrix, tokens []int) *tensor.Matrix {
	if len(tokens) == 0 || len(tokens) > m.MaxSeq {
		panic(fmt.Sprintf("transformer: sequence length %d out of (0,%d]", len(tokens), m.MaxSeq))
	}
	x := dst.Reuse(len(tokens), m.Hidden)
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
// classifier's sentence representation — into dst and returns it.
func (m *Model) pool(dst []float32, acts *tensor.Matrix) []float32 {
	pooled := reuseSlice(dst, m.Hidden)
	clear(pooled)
	inv := 1 / float32(acts.Rows)
	for i := 0; i < acts.Rows; i++ {
		row := acts.Row(i)
		for j := range pooled {
			pooled[j] += row[j] * inv
		}
	}
	return pooled
}

// headLogits writes the classification head's logits into dst and
// returns it.
func (m *Model) headLogits(dst []float32, pooled []float32) []float32 {
	logits := reuseSlice(dst, m.Labels)
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
// writes no model state, so concurrent calls on one model are safe: the
// blocks alternate between two call-local caches, so each block's input
// (the previous block's output) is never the buffer it writes.
func (m *Model) Logits(tokens []int) []float32 {
	x := m.embed(nil, tokens)
	var c [2]blockCache
	for l, b := range m.Blocks {
		x = b.forward(x, m.Heads, m.HeadDim(), m.Causal, &c[l%2])
	}
	return m.headLogits(nil, m.pool(nil, x))
}

// workspace returns the model's training-path scratch, creating it on
// first use.
func (m *Model) workspace() *workspace {
	if m.ws == nil {
		m.ws = &workspace{blocks: make([]blockCache, len(m.Blocks))}
	}
	return m.ws
}

// forwardCached runs embed and every block, saving each block's
// activations in the model's workspace for backward or head scoring,
// and returns the final block output. Not safe for concurrent use.
func (m *Model) forwardCached(tokens []int) *tensor.Matrix {
	ws := m.workspace()
	ws.emb = m.embed(ws.emb, tokens)
	x := ws.emb
	for l, b := range m.Blocks {
		x = b.forward(x, m.Heads, m.HeadDim(), m.Causal, &ws.blocks[l])
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
// adversarial attack to rank token substitutions). The gradient lives in
// the model's training workspace: it is valid until the model's next
// training-path call (LossAndBackward, Train, HeadConfidence or
// HeadConfidenceSeries), so a caller that keeps it must copy it. Not safe
// for concurrent use.
func (m *Model) LossAndBackward(tokens []int, label int) (float64, *tensor.Matrix) {
	if label < 0 || label >= m.Labels {
		panic(fmt.Sprintf("transformer: label %d out of range [0,%d)", label, m.Labels))
	}
	// Forward (re-runs embed + blocks so caches are fresh).
	acts := m.forwardCached(tokens)
	ws := m.ws
	ws.pooled = m.pool(ws.pooled, acts)
	pooled := ws.pooled
	ws.logits = ws.logits.Reuse(1, m.Labels)
	m.headLogits(ws.logits.Data, pooled)
	ws.probs = tensor.SoftmaxRowsInto(ws.probs, ws.logits)
	probs := ws.probs.Data
	p := probs[label]
	if p < 1e-12 {
		p = 1e-12
	}
	loss := -math.Log(float64(p))

	// Head backward.
	ws.dLogits = reuseSlice(ws.dLogits, m.Labels)
	dLogits := ws.dLogits
	copy(dLogits, probs)
	dLogits[label] -= 1
	for j := 0; j < m.Labels; j++ {
		m.HeadB.G.Data[j] += dLogits[j]
		for i := 0; i < m.Hidden; i++ {
			m.HeadW.G.Data[i*m.Labels+j] += pooled[i] * dLogits[j]
		}
	}
	// Mean pooling distributes the pooled gradient evenly over positions.
	ws.dPooled = reuseSlice(ws.dPooled, m.Hidden)
	dPooled := ws.dPooled
	for i := 0; i < m.Hidden; i++ {
		var s float32
		for j := 0; j < m.Labels; j++ {
			s += m.HeadW.V.At(i, j) * dLogits[j]
		}
		dPooled[i] = s / float32(acts.Rows)
	}
	ws.dActs = ws.dActs.Reuse(acts.Rows, acts.Cols)
	dActs := ws.dActs
	for i := 0; i < acts.Rows; i++ {
		copy(dActs.Row(i), dPooled)
	}

	for l := len(m.Blocks) - 1; l >= 0; l-- {
		dActs = m.Blocks[l].backward(dActs, m.Heads, m.HeadDim(), &ws.blocks[l])
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
