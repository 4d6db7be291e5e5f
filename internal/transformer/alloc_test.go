package transformer

import "testing"

// TestLossAndBackwardAllocs pins the training path's allocation contract:
// once the workspace is warm, a LossAndBackward call allocates a small
// constant that does not grow with the number of layers or heads.
func TestLossAndBackwardAllocs(t *testing.T) {
	tokens := []int{0, 5, 9, 13, 2, 7, 11, 3, 8, 1, 6, 4}
	for _, name := range []string{"tiny", "base", "large"} {
		m := New(Family()[name], 1)
		m.LossAndBackward(tokens, 0)
		n := testing.AllocsPerRun(20, func() { m.LossAndBackward(tokens, 1) })
		t.Logf("%s (%d layers, %d heads): %v allocs per call", name, m.Layers, m.Heads, n)
		if n > 8 {
			t.Errorf("%s: LossAndBackward allocates %v times per call on a warm workspace, want <= 8", name, n)
		}
	}
}

// TestTrainDropsWorkspace checks that a trained model keeps no training
// scratch: a population of trained models must not hold one workspace
// each. A later training-path call rebuilds it.
func TestTrainDropsWorkspace(t *testing.T) {
	m := New(Family()["tiny"], 1)
	m.LossAndBackward([]int{1, 2, 3}, 0)
	if m.ws == nil {
		t.Fatal("LossAndBackward did not build a workspace")
	}
	m.Train([]Example{{Tokens: []int{1, 2, 3}, Label: 0}, {Tokens: []int{4, 5}, Label: 1}}, TrainConfig{Epochs: 1})
	if m.ws != nil {
		t.Fatal("Train left its workspace attached to the model")
	}
}
