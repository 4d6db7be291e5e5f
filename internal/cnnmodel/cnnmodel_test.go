package cnnmodel

import (
	"math"
	"slices"
	"testing"

	"decepticon/internal/nn"
)

func TestGenerateImages(t *testing.T) {
	x, labels := GenerateImages("probe", 3, 30, 1)
	if x.Rows != 30 || x.Cols != ImgSize*ImgSize {
		t.Fatalf("shape %dx%d", x.Rows, x.Cols)
	}
	counts := make([]int, 3)
	for _, l := range labels {
		counts[l]++
	}
	for c, n := range counts {
		if n != 10 {
			t.Fatalf("label %d count %d", c, n)
		}
	}
	for _, v := range x.Data {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v out of [0,1]", v)
		}
	}
	// Deterministic.
	x2, _ := GenerateImages("probe", 3, 30, 1)
	for i := range x.Data {
		if x.Data[i] != x2.Data[i] {
			t.Fatal("generation must be deterministic")
		}
	}
}

func TestModelLearnsBlobTask(t *testing.T) {
	m := New(2, 1)
	x, labels := GenerateImages("learn", 2, 60, 2)
	m.Train(x, labels, TrainConfig{Epochs: 6, LR: 2e-3, Seed: 3})
	if acc := m.Accuracy(x, labels); acc < 0.85 {
		t.Fatalf("train accuracy %v < 0.85", acc)
	}
}

// TestTrainWorkerCountInvariance trains the residual network (padded
// convs, batch norm, pooling) at several worker counts through the same
// Fit path Train uses; the parameters must match bit for bit.
func TestTrainWorkerCountInvariance(t *testing.T) {
	x, labels := GenerateImages("workers", 2, 24, 5)
	var want []uint32
	for _, workers := range []int{1, 2, 4} {
		m := New(2, 7)
		m.Net.Fit(x, labels, nn.TrainConfig{
			Epochs: 2, BatchSize: 8, Optimizer: nn.NewAdamW(2e-3, 0.01), Seed: 3, Workers: workers,
		})
		var got []uint32
		for _, p := range m.Net.Params() {
			for _, v := range p.Data {
				got = append(got, math.Float32bits(v))
			}
		}
		if want == nil {
			want = got
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("parameters trained at %d workers differ from the serial run", workers)
		}
	}
}

func TestCloneAndLayerDiffs(t *testing.T) {
	m := New(2, 4)
	c := m.Clone()
	names, diffs := LayerDiffs(m, c)
	if len(names) != len(diffs) || len(names) == 0 {
		t.Fatalf("diffs shape %d/%d", len(names), len(diffs))
	}
	for i, d := range diffs {
		if d != 0 {
			t.Fatalf("clone diff %v at layer %s", d, names[i])
		}
	}
	// LayerNames must align with the trainable tensors.
	if len(m.LayerNames) != len(m.Net.Params()) {
		t.Fatalf("layer names %d vs params %d", len(m.LayerNames), len(m.Net.Params()))
	}
}

func TestReplaceHeadKeepsBackbone(t *testing.T) {
	m := New(4, 5)
	ft := m.ReplaceHead(2, 6)
	pm, pf := m.Net.Params(), ft.Net.Params()
	// All tensors except the final dense pair are copied.
	for i := 0; i < len(pm)-2; i++ {
		for j := range pm[i].Data {
			if pm[i].Data[j] != pf[i].Data[j] {
				t.Fatalf("backbone tensor %d changed", i)
			}
		}
	}
	// Head width changed.
	if pf[len(pf)-1].Cols != 2 {
		t.Fatalf("new head width %d", pf[len(pf)-1].Cols)
	}
}

// TestFig19Shape verifies the §7.7 claim at reduced scale: the fine-tuned
// model stays near its pre-trained baseline while a from-scratch model
// trained on the same data is far away in every layer.
func TestFig19Shape(t *testing.T) {
	pre := New(4, 10)
	px, plabels := GenerateImages("imagenet-analog", 4, 80, 10)
	pre.Train(px, plabels, TrainConfig{Epochs: 4, LR: 2e-3, Decay: 0.01, Seed: 11})

	hx, hlabels := GenerateImages("hymenoptera-analog", 2, 60, 12)
	ft := pre.ReplaceHead(2, 13)
	ft.Train(hx, hlabels, TrainConfig{Epochs: 2, LR: 1e-4, Decay: 0.05, Seed: 14})

	scratch := New(2, 999)
	scratch.Train(hx, hlabels, TrainConfig{Epochs: 4, LR: 2e-3, Decay: 0.01, Seed: 15})

	_, ftGap := LayerDiffs(pre, ft)
	_, scGap := LayerDiffs(scratch, ft)
	// Compare backbone layers (exclude the replaced head, last entry).
	var ftSum, scSum float64
	for i := 0; i < len(ftGap)-1; i++ {
		ftSum += ftGap[i]
		scSum += scGap[i]
	}
	if scSum < 10*ftSum {
		t.Fatalf("scratch gap %v not >> fine-tune gap %v (paper: >= 20x)", scSum, ftSum)
	}
}
