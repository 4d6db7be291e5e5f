package transformer

import (
	"bytes"
	"encoding/gob"
	"sort"
	"testing"
)

// priorModelExport is the wire layout Save wrote before the Tensors map
// was dropped: the map field sat (always empty) beside TensorList. Zoo
// store objects written in that layout must keep loading.
type priorModelExport struct {
	Config     Config
	Tensors    map[string][]float32
	TensorList []tensorExport
	Pruned     [][]bool
}

func TestLoadPriorLayout(t *testing.T) {
	m := New(testConfig(), 31)
	m.PruneHeads(0, 1)
	exp := priorModelExport{Config: m.Config, Pruned: make([][]bool, len(m.Blocks))}
	for _, p := range m.Params() {
		exp.TensorList = append(exp.TensorList, tensorExport{Name: p.Name, Data: p.Value.Data})
	}
	sort.Slice(exp.TensorList, func(i, j int) bool { return exp.TensorList[i].Name < exp.TensorList[j].Name })
	for l, b := range m.Blocks {
		exp.Pruned[l] = append([]bool(nil), b.HeadPruned...)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(exp); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("prior layout no longer loads: %v", err)
	}
	if got.PrunedHeadCount() != 1 {
		t.Fatalf("pruned heads %d after load, want 1", got.PrunedHeadCount())
	}
	want := m.Params()
	for i, p := range got.Params() {
		if p.Name != want[i].Name {
			t.Fatalf("param %d is %s, want %s", i, p.Name, want[i].Name)
		}
		for j, v := range p.Value.Data {
			if v != want[i].Value.Data[j] {
				t.Fatalf("tensor %s differs after load", p.Name)
			}
		}
	}
}
