package core

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"decepticon/internal/fingerprint"
	"decepticon/internal/obs"
	"decepticon/internal/pipeline"
	"decepticon/internal/zoo"
)

var (
	fusedOnce sync.Once
	fusedZ    *zoo.Zoo
	fusedAtk  *Attack
	fusedObs  *obs.Registry
)

// getFusedAttack prepares one shared multi-modal attack on the tiny zoo:
// all three sensor classifiers trained, fusion weights calibrated.
func getFusedAttack(t *testing.T) (*Attack, *zoo.Zoo) {
	t.Helper()
	fusedOnce.Do(func() {
		fusedZ = zoo.MustBuild(tinyZooCfg())
		fusedObs = obs.New()
		atk, err := Prepare(fusedZ, PrepareConfig{
			SamplesPerModel: 2, ImgSize: 32, Epochs: 8, LR: 0.002, Seed: 7,
			Obs:        fusedObs,
			Modalities: fingerprint.AllModalities(),
		})
		if err != nil {
			panic(err)
		}
		fusedAtk = atk
	})
	return fusedAtk, fusedZ
}

func TestPrepareTrainsModalityClassifiers(t *testing.T) {
	atk, _ := getFusedAttack(t)
	if atk.PowerClf == nil || atk.CounterClf == nil {
		t.Fatal("multi-modal Prepare must train the power and counter classifiers")
	}
	if len(atk.FusionWeights) != 3 {
		t.Fatalf("fusion weights cover %d modalities, want 3", len(atk.FusionWeights))
	}
	var best float64
	for m, w := range atk.FusionWeights {
		if w <= 0 || w > 1 {
			t.Fatalf("weight of %s is %v, want (0, 1]", m, w)
		}
		if w > best {
			best = w
		}
	}
	if best != 1 {
		t.Fatalf("max-normalized weights must peak at 1, got %v", best)
	}
}

// A fully multi-modal campaign must stay byte-identical for any worker
// count: the sensor seeds are pure functions of (modality, victim,
// measure seed), never of scheduling.
func TestMultiModalCampaignWorkerInvariant(t *testing.T) {
	atk, z := getFusedAttack(t)
	run := func(workers int) *Campaign {
		c, err := atk.RunAll(z.FineTuned, RunOptions{
			MeasureSeed: 5,
			Workers:     workers,
			Modalities:  fingerprint.AllModalities(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	serial := run(1)
	par := run(3)
	for i := range serial.Reports {
		a, b := *serial.Reports[i], *par.Reports[i]
		a.Clone, b.Clone = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("report %d diverges across worker counts:\nserial: %+v\npar:    %+v", i, a, b)
		}
	}
	for _, rep := range serial.Reports {
		if got := strings.Join(rep.Modalities, ","); got != "trace,power,counters" {
			t.Fatalf("report modalities %q, want all three in request order", got)
		}
		if rep.IdentifyDegraded || len(rep.JammedModalities) > 0 {
			t.Fatalf("clean multi-modal run reported degradation: %+v", rep)
		}
	}
}

// Jamming one sensor degrades the run instead of failing it: the report
// says so, the obs counters meter it, and identification still happens
// on the survivors.
func TestJammedSensorDegradesGracefully(t *testing.T) {
	atk, z := getFusedAttack(t)
	jammedBefore := fusedObs.Counter("core.modality_jammed").Value()
	degradedBefore := fusedObs.Counter("core.identify_degraded").Value()
	rep, err := atk.Run(z.FineTuned[0], RunOptions{
		MeasureSeed: 9,
		Modalities:  fingerprint.AllModalities(),
		Jammed:      []fingerprint.Modality{fingerprint.ModalityPower},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IdentifyDegraded {
		t.Fatal("jammed run must report degraded identification")
	}
	if !reflect.DeepEqual(rep.JammedModalities, []string{"power"}) {
		t.Fatalf("jammed modalities %v, want [power]", rep.JammedModalities)
	}
	if !reflect.DeepEqual(rep.Modalities, []string{"trace", "counters"}) {
		t.Fatalf("surviving modalities %v, want [trace counters]", rep.Modalities)
	}
	if rep.Identified == "" {
		t.Fatal("surviving sensors must still identify")
	}
	if got := fusedObs.Counter("core.modality_jammed").Value(); got != jammedBefore+1 {
		t.Fatalf("core.modality_jammed moved %d -> %d, want +1", jammedBefore, got)
	}
	if got := fusedObs.Counter("core.identify_degraded").Value(); got != degradedBefore+1 {
		t.Fatalf("core.identify_degraded moved %d -> %d, want +1", degradedBefore, got)
	}
}

// Jamming everything is the one failure mode: no posterior survives.
func TestAllSensorsJammedFails(t *testing.T) {
	atk, z := getFusedAttack(t)
	_, err := atk.Run(z.FineTuned[0], RunOptions{
		MeasureSeed: 9,
		Modalities:  fingerprint.AllModalities(),
		Jammed:      fingerprint.AllModalities(),
	})
	if err == nil || !strings.Contains(err.Error(), "jammed") {
		t.Fatalf("all-jammed run must fail with a jam error, got %v", err)
	}
}

// Requesting a modality whose classifier was never trained degrades the
// same way jamming does (metered as absent), using the legacy
// trace-only attack fixture.
func TestAbsentModalityDegrades(t *testing.T) {
	atk0, z := getAttack(t)
	atk := *atk0
	reg := obs.New()
	atk.Obs = reg
	rep, err := atk.Run(z.FineTuned[0], RunOptions{
		MeasureSeed: 4,
		Modalities:  []fingerprint.Modality{fingerprint.ModalityTrace, fingerprint.ModalityPower},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IdentifyDegraded {
		t.Fatal("absent classifier must degrade the run")
	}
	if !reflect.DeepEqual(rep.Modalities, []string{"trace"}) {
		t.Fatalf("surviving modalities %v, want [trace]", rep.Modalities)
	}
	if reg.Counter("core.modality_absent").Value() != 1 {
		t.Fatal("core.modality_absent not metered")
	}
}

// The default single-trace path must not change at all: no modality
// report fields, no degradation counters, same identification as ever.
func TestLegacyPathUntouched(t *testing.T) {
	atk, z := getAttack(t)
	rep, err := atk.Run(z.FineTuned[0], RunOptions{MeasureSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Modalities != nil || rep.JammedModalities != nil || rep.IdentifyDegraded {
		t.Fatalf("legacy run must not report modality fields: %+v", rep)
	}
}

// identifyOnly runs a victim through the level-1 stages alone — measure
// and identify, before query-probe disambiguation can override the
// pick — and returns the run so its trace and sensors can be inspected.
func identifyOnly(t *testing.T, atk *Attack, victim *zoo.FineTuned, opt RunOptions) *attackRun {
	t.Helper()
	r := &attackRun{a: atk, opt: opt, victim: victim, rep: &Report{}, log: atk.Obs.Log()}
	s := &pipeline.State{Ctx: context.Background(), Clock: &pipeline.SimClock{}}
	if err := (&multiMeasure{r: r, sensors: sensorsFor(r)}).MeasureTrace(s); err != nil {
		t.Fatal(err)
	}
	if err := (&fusedIdentify{r: r}).Identify(s); err != nil {
		t.Fatal(err)
	}
	return r
}

// An attack prepared with the hierarchy identifies through it on every
// path: a trace-only run picks Hier.Predict, and under fusion the trace
// sensor contributes the hierarchy's posterior, not the flat CNN's.
func TestHierarchyIdentifiesThroughSensors(t *testing.T) {
	z := zoo.MustBuild(zoo.TinyBuildConfig())
	atk, err := Prepare(z, PrepareConfig{
		SamplesPerModel: 2, ImgSize: 32, Epochs: 8, LR: 0.002, Seed: 7,
		Modalities:   []fingerprint.Modality{fingerprint.ModalityPower},
		Hierarchical: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range z.FineTuned {
		seed := uint64(i + 1)
		r := identifyOnly(t, atk, v, RunOptions{MeasureSeed: seed})
		if want := atk.Hier.Predict(r.trace); r.identified != want {
			t.Fatalf("%s: trace-only run identified %s, hierarchy predicts %s", v.Name, r.identified, want)
		}

		r = identifyOnly(t, atk, v, RunOptions{MeasureSeed: seed,
			Modalities: []fingerprint.Modality{fingerprint.ModalityTrace, fingerprint.ModalityPower}})
		if len(r.live) != 2 || r.live[0].modality() != fingerprint.ModalityTrace {
			t.Fatalf("%s: live sensors %d, want trace and power", v.Name, len(r.live))
		}
		if got, want := r.live[0].posterior(), atk.Hier.Posterior(r.trace); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: fused trace posterior %v, hierarchy posterior %v", v.Name, got, want)
		}
	}
}
