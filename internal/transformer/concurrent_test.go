package transformer

import (
	"math"
	"sync"
	"testing"
)

// TestConcurrentPredictMatchesSerial runs inference on one model from
// several goroutines at once, as campaigns attacking the same victim do.
// Inputs of different lengths interleave, so a forward that kept its
// activations in the model would mix shapes between calls (and the race
// detector would flag the shared writes). Every result must equal the
// serial one bit for bit.
func TestConcurrentPredictMatchesSerial(t *testing.T) {
	m := New(testConfig(), 31)
	inputs := [][]int{{1, 2, 3}, {4, 5, 6, 7, 8, 9}, {2}, {11, 0, 3, 7}, {5, 5}}
	want := make([][]float32, len(inputs))
	wantClass := make([]int, len(inputs))
	for i, in := range inputs {
		want[i] = m.Logits(in)
		wantClass[i] = m.Predict(in)
	}
	const goroutines, rounds = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(inputs)
				got := m.Logits(inputs[i])
				for j := range got {
					if math.Float32bits(got[j]) != math.Float32bits(want[i][j]) {
						t.Errorf("goroutine %d input %d: logit %d = %v, want %v", g, i, j, got[j], want[i][j])
						return
					}
				}
				if c := m.Predict(inputs[i]); c != wantClass[i] {
					t.Errorf("goroutine %d input %d: class %d, want %d", g, i, c, wantClass[i])
					return
				}
				if p := m.Probs(inputs[i]); len(p) != m.Labels {
					t.Errorf("goroutine %d input %d: %d probabilities, want %d", g, i, len(p), m.Labels)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
