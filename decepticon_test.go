package decepticon_test

// Public-API tests: everything here uses only the root package, exactly
// as an external consumer would.

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"decepticon"
)

var (
	apiOnce sync.Once
	apiZoo  *decepticon.Zoo
	apiAtk  *decepticon.Attack
)

func getAPI(t *testing.T) (*decepticon.Zoo, *decepticon.Attack) {
	t.Helper()
	apiOnce.Do(func() {
		cfg := decepticon.TraceOnlyZooConfig()
		cfg.NumPretrained = 6
		cfg.NumFineTuned = 8
		apiZoo = decepticon.MustBuildZoo(cfg)
		atk, err := decepticon.NewAttack(apiZoo, decepticon.DefaultPrepareConfig())
		if err != nil {
			panic(err)
		}
		apiAtk = atk
	})
	return apiZoo, apiAtk
}

func TestPublicEndToEnd(t *testing.T) {
	z, atk := getAPI(t)
	rep, err := atk.Run(z.FineTuned[0], decepticon.RunOptions{MeasureSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Identified == "" {
		t.Fatal("no identification")
	}
	if rep.Extract == nil {
		t.Fatal("no extraction stats")
	}
	if rep.MatchRate < 0.9 {
		t.Fatalf("match rate %v", rep.MatchRate)
	}
	if rep.Extract.ReductionFactor() < 5 {
		t.Fatalf("reduction %v", rep.Extract.ReductionFactor())
	}
}

func TestPublicZooStore(t *testing.T) {
	cfg := decepticon.TraceOnlyZooConfig()
	cfg.NumPretrained = 2
	cfg.NumFineTuned = 2
	dir := t.TempDir()
	a, st, err := decepticon.BuildOrOpenZooStore(context.Background(), cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trained() != 4 {
		t.Fatalf("cold store trained %d models, want 4", st.Trained())
	}
	b, st, err := decepticon.BuildOrOpenZooStore(context.Background(), cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trained() != 0 || st.Reused != 4 {
		t.Fatalf("warm store trained %d, reused %d; want 0/4", st.Trained(), st.Reused)
	}
	if a.Pretrained[0].Name != b.Pretrained[0].Name {
		t.Fatal("store round trip changed the population")
	}
	tokens := b.FineTuned[0].Dev[0].Tokens
	if a.FineTuned[0].Model().Predict(tokens) != b.FineTuned[0].Model().Predict(tokens) {
		t.Fatal("store round trip changed a victim's prediction")
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	ids := decepticon.ExperimentIDs()
	if len(ids) < 20 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	titles := decepticon.ExperimentTitles()
	if len(titles) != len(ids) {
		t.Fatal("titles/ids mismatch")
	}
	// Zoo-free experiments run through the public Experiments type.
	env := decepticon.NewExperiments(decepticon.ScaleSmall)
	var buf bytes.Buffer
	if err := env.Run("fig10", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig 10") {
		t.Fatal("experiment output missing header")
	}
	if err := env.Run("not-an-experiment", &buf); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestPublicExtractionConfig(t *testing.T) {
	cfg := decepticon.DefaultExtractionConfig()
	if cfg.SkipThreshold != 0.001 || cfg.MaxBitsPerWeight != 2 {
		t.Fatalf("unexpected default operating point: %+v", cfg)
	}
}
