package transformer

import (
	"bytes"
	"math"
	"testing"

	"decepticon/internal/tensor"
)

func causalConfig() Config {
	cfg := testConfig()
	cfg.Causal = true
	return cfg
}

func TestCausalMaskBlocksFuture(t *testing.T) {
	// The output of a decoder block at position i must not depend on
	// tokens at positions > i.
	m := New(causalConfig(), 21)
	a := []int{1, 2, 3, 4, 5}
	b := []int{1, 2, 3, 4, 9} // only the last token differs

	xa := m.embed(a)
	outA := m.Blocks[0].forward(xa, m.Heads, m.HeadDim(), true, new(blockCache)).Clone()
	xb := m.embed(b)
	outB := m.Blocks[0].forward(xb, m.Heads, m.HeadDim(), true, new(blockCache))

	for i := 0; i < 4; i++ {
		for j := 0; j < m.Hidden; j++ {
			if outA.At(i, j) != outB.At(i, j) {
				t.Fatalf("position %d depends on a future token (dim %d)", i, j)
			}
		}
	}
	// The last position must differ (it sees its own token).
	same := true
	for j := 0; j < m.Hidden; j++ {
		if outA.At(4, j) != outB.At(4, j) {
			same = false
		}
	}
	if same {
		t.Fatal("last position ignored its own token")
	}
}

func TestEncoderSeesFuture(t *testing.T) {
	// Sanity check of the test above: an encoder block DOES let early
	// positions see later tokens.
	m := New(testConfig(), 21)
	a := []int{1, 2, 3, 4, 5}
	b := []int{1, 2, 3, 4, 9}
	outA := m.Blocks[0].forward(m.embed(a), m.Heads, m.HeadDim(), false, new(blockCache)).Clone()
	outB := m.Blocks[0].forward(m.embed(b), m.Heads, m.HeadDim(), false, new(blockCache))
	diff := false
	for j := 0; j < m.Hidden; j++ {
		if outA.At(0, j) != outB.At(0, j) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("encoder position 0 did not see the future token")
	}
}

func TestCausalAttentionRowsNormalize(t *testing.T) {
	m := New(causalConfig(), 22)
	m.forwardCached([]int{1, 2, 3, 4})
	for h, probs := range m.Blocks[0].cache.probs {
		if probs == nil {
			continue
		}
		for i := 0; i < probs.Rows; i++ {
			var sum float32
			for j, v := range probs.Row(i) {
				sum += v
				if j > i && v > 1e-6 {
					t.Fatalf("head %d: attention weight %v leaks to future position (%d,%d)", h, v, i, j)
				}
			}
			if math.Abs(float64(sum-1)) > 1e-5 {
				t.Fatalf("head %d row %d sums to %v", h, i, sum)
			}
		}
	}
}

// TestCausalGradientsMatchNumeric re-runs the full gradient check with the
// causal mask active.
func TestCausalGradientsMatchNumeric(t *testing.T) {
	m := New(causalConfig(), 23)
	tokens := []int{1, 7, 3, 9, 0}
	label := 2
	loss := func() float64 {
		logits := m.Logits(tokens)
		probs := tensor.SoftmaxRows(tensor.FromSlice(1, len(logits), logits)).Row(0)
		return -math.Log(float64(probs[label]))
	}
	m.ZeroGrads()
	m.LossAndBackward(tokens, label)
	const h = 1e-2
	checked := 0
	for _, p := range m.Params() {
		stride := len(p.Value.Data)/3 + 1
		for j := 0; j < len(p.Value.Data); j += stride {
			if p.Name == "tok_emb" {
				j = tokens[0]*m.Hidden + j%m.Hidden
			}
			orig := p.Value.Data[j]
			p.Value.Data[j] = orig + h
			up := loss()
			p.Value.Data[j] = orig - h
			down := loss()
			p.Value.Data[j] = orig
			numeric := (up - down) / (2 * h)
			analytic := float64(p.Grad.Data[j])
			if math.Abs(numeric-analytic) > 2e-2*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, j, analytic, numeric)
			}
			checked++
			if p.Name == "tok_emb" {
				break
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d coordinates checked", checked)
	}
}

func TestCausalModelTrains(t *testing.T) {
	m := New(causalConfig(), 24)
	var examples []Example
	for i := 0; i < 60; i++ {
		tokens := []int{0, 1 + i%3, 5, 6}
		examples = append(examples, Example{Tokens: tokens, Label: (i % 3) % m.Labels})
	}
	m.Train(examples, TrainConfig{Epochs: 10, BatchSize: 8, LR: 3e-3, Seed: 1})
	if acc := m.Evaluate(examples); acc < 0.9 {
		t.Fatalf("causal model training accuracy %v", acc)
	}
}

func TestCausalSerializationRoundTrip(t *testing.T) {
	m := New(causalConfig(), 25)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Causal {
		t.Fatal("Causal flag lost in serialization")
	}
	tokens := []int{1, 2, 3}
	a, b := m.Logits(tokens), got.Logits(tokens)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("restored causal model differs")
		}
	}
}
