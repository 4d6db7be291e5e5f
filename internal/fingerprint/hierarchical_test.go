package fingerprint

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"decepticon/internal/obs"
)

var (
	hierOnce sync.Once
	testHier *Hierarchical
	hierErr  error
)

// getHier trains the shared 60-epoch hierarchy once per test binary, as
// getTrained does for the flat classifier; the tests only read it.
func getHier(t *testing.T) (*Hierarchical, *Classifier, *Dataset, *Dataset) {
	t.Helper()
	flat, train, test := getTrained(t)
	z := getZoo(t)
	hierOnce.Do(func() {
		testHier, hierErr = TrainHierarchical(context.Background(), z, train, 64,
			TrainConfig{Epochs: 60, LR: 0.002, Seed: 4}, 2, nil)
	})
	if hierErr != nil {
		t.Fatal(hierErr)
	}
	return testHier, flat, train, test
}

// The hierarchy's structure must mirror the zoo: one family class per
// distinct ArchName, multi-release families gated behind a release
// classifier, single-release families answered directly.
func TestHierarchicalStructure(t *testing.T) {
	h, _, _, _ := getHier(t)
	z := getZoo(t)
	fams := map[string]int{}
	for _, p := range z.Pretrained {
		fams[p.ArchName]++
	}
	if len(h.Family.Classes) != len(fams) {
		t.Fatalf("family classifier has %d classes, zoo has %d families",
			len(h.Family.Classes), len(fams))
	}
	for fam, n := range fams {
		if n == 1 {
			if _, ok := h.Direct[fam]; !ok {
				t.Fatalf("single-release family %s missing from Direct", fam)
			}
			if _, ok := h.Release[fam]; ok {
				t.Fatalf("single-release family %s has a release classifier", fam)
			}
			continue
		}
		rc, ok := h.Release[fam]
		if !ok {
			t.Fatalf("multi-release family %s missing release classifier", fam)
		}
		// n family releases plus the trailing "__other__" training class.
		if len(rc.Classes) != n+1 || rc.Classes[n] != otherClass {
			t.Fatalf("family %s release classifier has classes %v, want %d releases + other",
				fam, rc.Classes, n)
		}
	}
}

// Acceptance: hierarchical identification matches the flat classifier on
// the paper population's held-out traces.
//
// Releases sharing a profile key (e.g. the four-way small-BERT cluster)
// have byte-identical execution fingerprints, so *within* such a cluster
// any classifier's pick is chance — the pipeline resolves those with the
// Disambiguate stage's query probes, not the trace classifier. The
// meaningful identification target is therefore cluster-aware: a
// prediction is right when it lands in the true release's ambiguity
// cluster. That metric is pinned as an exact match; raw accuracy (which
// includes the chance-level intra-cluster coin flips) is pinned to stay
// within one cluster-sized slice of flat's.
func TestHierarchicalMatchesFlatAccuracy(t *testing.T) {
	h, flat, _, test := getHier(t)
	z := getZoo(t)

	cluster := func(name string) map[string]bool {
		set := map[string]bool{}
		for _, q := range z.AmbiguousWith(z.PretrainedByName(name)) {
			set[q.Name] = true
		}
		return set
	}
	var flatHits, hierHits, flatCluster, hierCluster int
	for _, s := range test.Samples {
		truth := test.Classes[s.Label]
		in := cluster(truth)
		if p := flat.Predict(s.Trace); p == truth {
			flatHits++
			flatCluster++
		} else if in[p] {
			flatCluster++
		}
		if p := h.Predict(s.Trace); p == truth {
			hierHits++
			hierCluster++
		} else if in[p] {
			hierCluster++
		}
	}
	n := float64(len(test.Samples))
	flatAcc, hierAcc := float64(flatHits)/n, float64(hierHits)/n
	t.Logf("raw: flat %.3f, hierarchical %.3f; cluster-aware: flat %.3f, hierarchical %.3f",
		flatAcc, hierAcc, float64(flatCluster)/n, float64(hierCluster)/n)
	if hierCluster < flatCluster {
		t.Fatalf("cluster-aware accuracy %d/%d below flat %d/%d",
			hierCluster, len(test.Samples), flatCluster, len(test.Samples))
	}
	if hierAcc < flatAcc-0.1 {
		t.Fatalf("raw hierarchical accuracy %.3f more than 0.1 below flat %.3f", hierAcc, flatAcc)
	}
}

// Posterior is the hierarchy's entry into fusion: aligned with the flat
// classes, family-gated (all mass inside the family the family CNN
// picks), and its argmax — directly and after single-input fusion — is
// Predict's answer on every train and test sample.
func TestHierarchicalPosteriorMatchesPredict(t *testing.T) {
	h, flat, train, test := getHier(t)
	z := getZoo(t)
	if !slices.Equal(h.Classes, flat.Classes) {
		t.Fatalf("hierarchy classes %v, flat classes %v", h.Classes, flat.Classes)
	}
	for _, d := range []*Dataset{train, test} {
		for _, s := range d.Samples {
			post := h.Posterior(s.Trace)
			if len(post) != len(h.Classes) {
				t.Fatalf("posterior has %d entries, want %d", len(post), len(h.Classes))
			}
			fam := h.Family.Predict(s.Trace)
			var sum float64
			for i, p := range post {
				sum += p
				if p != 0 && z.PretrainedByName(h.Classes[i]).ArchName != fam {
					t.Fatalf("class %s outside family %s has mass %v", h.Classes[i], fam, p)
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("posterior sums to %v", sum)
			}
			want := h.Predict(s.Trace)
			if got := h.Classes[ArgMax(post)]; got != want {
				t.Fatalf("posterior argmax %s, Predict %s", got, want)
			}
			fused := FusePosteriors([][]float64{post}, []float64{1})
			if got := h.Classes[ArgMax(fused)]; got != want {
				t.Fatalf("fused argmax %s, Predict %s", got, want)
			}
		}
	}
}

// Each concurrently trained shard records on its own trace lane, so the
// trace — not just the weights — is the same for any worker count.
func TestHierarchicalTraceWorkerInvariance(t *testing.T) {
	z := getZoo(t)
	_, train, _ := getTrained(t)
	cfg := TrainConfig{Epochs: 2, LR: 0.002, Seed: 4}
	events := func(workers int) []obs.TraceEvent {
		reg := obs.New()
		tr := obs.NewTracer()
		reg.SetTracer(tr)
		if _, err := TrainHierarchical(context.Background(), z, train, 64, cfg, workers, reg); err != nil {
			t.Fatal(err)
		}
		return tr.Events()
	}
	e1, e4 := events(1), events(4)
	if !reflect.DeepEqual(e1, e4) {
		t.Fatal("hierarchy training trace differs between 1 and 4 workers")
	}
}

// Sharded training is worker-count invariant: per-family seeds derive
// from family names, never from scheduling.
func TestHierarchicalWorkerCountInvariance(t *testing.T) {
	z := getZoo(t)
	_, train, test := getTrained(t)
	cfg := TrainConfig{Epochs: 12, LR: 0.002, Seed: 4}
	h1, err := TrainHierarchical(context.Background(), z, train, 64, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	h4, err := TrainHierarchical(context.Background(), z, train, 64, cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range test.Samples {
		a, b := h1.Predict(s.Trace), h4.Predict(s.Trace)
		if a != b {
			t.Fatalf("prediction differs across worker counts: %s vs %s", a, b)
		}
	}
}
