package transformer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"decepticon/internal/rng"
)

// goldenTrainSHA is the SHA-256 of the raw little-endian float32
// parameters (Params order) of the three models goldenTrainRun trains.
// It pins every rounding of the training path — GEMM kernels, attention,
// layer norm, GELU, AdamW — so a change that reorders a single
// accumulation fails here rather than silently shifting the zoo. The
// value was recorded from the scalar-Go, allocating implementation.
const goldenTrainSHA = "920d2a031b707b12d6e8778041062f956d8d56d0213cc55f959c7b9a12d0f0d9"

// goldenExamples returns n labeled sequences of varied length (so the
// workspace is resized between examples).
func goldenExamples(r *rng.RNG, n, vocab, maxSeq int) []Example {
	out := make([]Example, n)
	for i := range out {
		toks := make([]int, 2+r.Intn(maxSeq-1))
		for j := range toks {
			toks[j] = r.Intn(vocab)
		}
		out[i] = Example{Tokens: toks, Label: toks[0] % 2}
	}
	return out
}

// goldenTrainRun trains an encoder, a causal decoder with a pruned head,
// and a discriminatively fine-tuned descendant of the encoder.
func goldenTrainRun() []*Model {
	r := rng.New(77)
	enc := NewWithInit(Family()["small"], 1, TrainedInit)
	ex := goldenExamples(r, 24, enc.Vocab, enc.MaxSeq)
	enc.Train(ex, TrainConfig{Epochs: 2, BatchSize: 5, LR: 1e-3, WeightDecay: 0.01, WarmupSteps: 2, Seed: 3})

	cfg := Family()["mini"]
	cfg.Causal = true
	dec := New(cfg, 2)
	dec.PruneHeads(1, 0)
	dec.Train(goldenExamples(r, 16, cfg.Vocab, cfg.MaxSeq), TrainConfig{Epochs: 2, BatchSize: 4, LR: 1e-3, Seed: 4})

	ft := FineTuneFrom(enc, 3, goldenExamples(r, 16, enc.Vocab, enc.MaxSeq),
		TrainConfig{Epochs: 2, BatchSize: 4, LR: 3e-5, HeadLR: 3e-2, WeightDecay: 2, Seed: 5}, 9)
	return []*Model{enc, dec, ft}
}

func paramSHA(models []*Model) string {
	h := sha256.New()
	var buf [4]byte
	for _, m := range models {
		for _, p := range m.Params() {
			for _, v := range p.Value.Data {
				binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestTrainGoldenParams(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go compiler fuses x*y+z into one rounding on arm64 and
		// some other architectures, which moves low bits.
		t.Skip("golden recorded on amd64")
	}
	if got := paramSHA(goldenTrainRun()); got != goldenTrainSHA {
		t.Fatalf("trained parameters SHA-256 = %s, golden %s: a kernel changed a rounding", got, goldenTrainSHA)
	}
}
