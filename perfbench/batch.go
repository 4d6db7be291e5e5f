package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"decepticon/internal/core"
	"decepticon/internal/fingerprint"
	"decepticon/internal/obs"
	"decepticon/internal/sidechannel"
	"decepticon/internal/zoo"
)

// workers is the worker, runner and client-goroutine count of every
// workload, sized for a two-core machine.
const workers = 2

// exactPasses is how many leading campaign passes of a batch workload
// feed the deterministic outputs. A fixed count keeps those outputs
// independent of how many passes fit in the measured time; five passes
// are 100 victim attacks, enough to keep identify_rate steady across
// seeds.
const exactPasses = 5

// faultSpec is the Makefile's fault plan (FAULTS_SPEC) minus its seed,
// which the workload seed supplies.
const faultSpec = "transient=0.02,recovery=3,stuck=0.0005,outage=0.001,period=1500"

// runColdSmall is `decepticon -scale small -all -workers 2` in process:
// build the small zoo in memory, train the default level-1 classifier,
// and attack every victim.
func runColdSmall(ctx context.Context, cfg runConfig) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	reg := cfg.registry()
	start := time.Now()
	zc := zoo.SmallBuildConfig()
	zc.Workers, zc.Obs = workers, reg
	var z *zoo.Zoo
	err := cfg.spans.wrap("setup0/zoo", "setup0", "zoo.build", func() (err error) {
		z, err = zoo.BuildContext(ctx, zc)
		return err
	})
	if err != nil {
		return nil, err
	}
	buildEnd := time.Now()
	pc := core.DefaultPrepareConfig()
	pc.Workers, pc.Obs = workers, reg
	atk, err := prepare(ctx, cfg, z, pc, "setup0", o)
	if err != nil {
		return nil, err
	}
	end := time.Now()
	cfg.spans.add("setup0", "", "bench.setup", start, end)
	o.setups = []float64{end.Sub(start).Seconds()}
	if cfg.traced() {
		snap := reg.Snapshot()
		o.layers["zoo.build_s"] = buildEnd.Sub(start).Seconds()
		o.layers["zoo.build_cpu_util"] = cfg.cpu.util(start, buildEnd)
		o.layers["zoo.models_trained"] = float64(snap.Counters["zoo.models_pretrained"] + snap.Counters["zoo.models_finetuned"])
	}
	// The set-up alone runs several times the measured time, so the
	// attack phase is just the fixed exact passes.
	cfg.fixed = true
	err = attackPasses(ctx, cfg, o, atk, z, func(int) (core.RunOptions, error) {
		return core.RunOptions{Workers: workers}, nil
	})
	return o, err
}

// runCampaignFaulted attacks the warm store's victims over and over
// with every sensor, the scheduled extractor and a faulty rowhammer
// channel, after a light level-1 preparation.
func runCampaignFaulted(ctx context.Context, cfg runConfig) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	if err := ensureStore(ctx, cfg); err != nil {
		return nil, err
	}
	var z *zoo.Zoo
	var atk *core.Attack
	err := repeatSetup(cfg, o, func(id string, reg *obs.Registry) (err error) {
		z, atk, err = warmSetup(ctx, cfg, id, reg, o)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = attackPasses(ctx, cfg, o, atk, z, func(pass int) (core.RunOptions, error) {
		// Each pass meets its own faults, so a run averages over several
		// fault plans instead of inheriting the luck of one.
		plan, err := sidechannel.ParseFaultPlan(fmt.Sprintf("seed=%d,%s", derive(cfg.seed, "faults", uint64(pass)), faultSpec))
		return core.RunOptions{
			Workers: workers, FaultPlan: plan,
			ScheduledExtraction: true, ReleaseModels: true,
			Modalities: fingerprint.AllModalities(),
		}, err
	})
	return o, err
}

// setupRepeats is how many times a store-backed workload sets up; the
// median is reported, and the last set-up is the one attacked with.
const setupRepeats = 3

// repeatSetup runs one set-up setupRepeats times and records each one's
// wall time. A traced run attaches a fresh registry to each, and keeps
// the median of every per-layer set-up metric.
func repeatSetup(cfg runConfig, o *outcome, setup func(id string, reg *obs.Registry) error) error {
	perLayer := map[string][]float64{}
	for i := range setupRepeats {
		id := fmt.Sprintf("setup%d", i)
		o.layers = map[string]float64{}
		start := time.Now()
		if err := setup(id, cfg.registry()); err != nil {
			return err
		}
		end := time.Now()
		cfg.spans.add(id, "", "bench.setup", start, end)
		o.setups = append(o.setups, end.Sub(start).Seconds())
		for k, v := range o.layers {
			perLayer[k] = append(perLayer[k], v)
		}
		// Collect what this set-up left behind before the next one, so
		// that repeating the set-up, which a user never does, does not
		// raise the process's memory high-water mark.
		runtime.GC()
	}
	o.layers = map[string]float64{}
	for k, vs := range perLayer {
		o.layers[k] = median(vs)
	}
	return nil
}

// ensureStore makes the small zoo's store warm before anything is
// timed: the first run in a checkout trains it, later runs only verify
// it and warm the page cache.
func ensureStore(ctx context.Context, cfg runConfig) error {
	zc := zoo.SmallBuildConfig()
	zc.Workers = workers
	_, st, err := zoo.BuildOrOpenStore(ctx, zc, cfg.storeDir(), "")
	if err != nil {
		return fmt.Errorf("prepare zoo store: %w", err)
	}
	if st.Trained() > 0 {
		log.Printf("zoo store prepared: %d models trained", st.Trained())
	}
	return nil
}

// warmSetup opens the warm store and prepares the light level-1
// attack with every sensor: the CLIs' tiny settings of 2 samples per
// model, 32-pixel images and 8 epochs.
func warmSetup(ctx context.Context, cfg runConfig, id string, reg *obs.Registry, o *outcome) (*zoo.Zoo, *core.Attack, error) {
	zc := zoo.SmallBuildConfig()
	zc.Workers, zc.Obs = workers, reg
	var z *zoo.Zoo
	var st *zoo.StoreStats
	start := time.Now()
	err := cfg.spans.wrap(id+"/zoo", id, "zoo.store_open", func() (err error) {
		z, st, err = zoo.BuildOrOpenStore(ctx, zc, cfg.storeDir(), "")
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	o.layers["zoo.store_open_s"] = time.Since(start).Seconds()
	o.layers["zoo.models_trained"] = float64(st.Trained())
	// Warm-store guard: set-up time must never silently include a rebuild.
	o.check(st.Trained() == 0, "%s: warm store open trained %d models", id, st.Trained())
	pc := core.PrepareConfig{
		SamplesPerModel: 2, ImgSize: 32, Epochs: 8,
		Workers: workers, Obs: reg, Modalities: fingerprint.AllModalities(),
	}
	atk, err := prepare(ctx, cfg, z, pc, id, o)
	return z, atk, err
}

// prepare trains the level-1 classifiers inside a span of the
// fingerprint layer, which does nearly all of core.PrepareContext's
// work, and reads the training timers the program exports.
func prepare(ctx context.Context, cfg runConfig, z *zoo.Zoo, pc core.PrepareConfig, setupID string, o *outcome) (*core.Attack, error) {
	var atk *core.Attack
	start := time.Now()
	err := cfg.spans.wrap(setupID+"/prepare", setupID, "fingerprint.prepare", func() (err error) {
		atk, err = core.PrepareContext(ctx, z, pc)
		return err
	})
	if err != nil || !cfg.traced() {
		return atk, err
	}
	snap := pc.Obs.Snapshot()
	dataset := snap.Timers["fingerprint.dataset_seconds"].Seconds
	train := snap.Timers["fingerprint.train_seconds"].Seconds
	// PrepareContext builds the dataset and then trains the CNN on it, so
	// training occupies this wall-clock window.
	trainStart := start.Add(time.Duration(dataset * float64(time.Second)))
	trainEnd := trainStart.Add(time.Duration(train * float64(time.Second)))
	o.layers["fingerprint.dataset_s"] = dataset
	o.layers["fingerprint.train_s"] = train
	o.layers["fingerprint.train_cpu_util"] = cfg.cpu.util(trainStart, trainEnd)
	o.layers["fingerprint.train_samples"] = float64(snap.Counters["fingerprint.train_samples"])
	o.layers["fingerprint.vector_train_s"] = snap.Timers["fingerprint.vector_train_seconds"].Seconds
	return atk, nil
}

// attackPasses is a batch workload's attack phase: campaigns over every
// victim, each with its own measure seed, for the measured time and at
// least exactPasses. total_s counts the median pass, the wait of one
// `decepticon -all` user.
func attackPasses(ctx context.Context, cfg runConfig, o *outcome, atk *core.Attack, z *zoo.Zoo,
	options func(pass int) (core.RunOptions, error)) error {
	reg := cfg.registry()
	atk.Obs = reg
	var hammer, physical int64
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	for pass := 0; pass < exactPasses || (!cfg.fixed && time.Now().Before(deadline)); pass++ {
		id := fmt.Sprintf("campaign%d", pass)
		opt, err := options(pass)
		if err != nil {
			return err
		}
		opt.MeasureSeed = derive(cfg.seed, "measure", uint64(pass))
		var finish func(time.Time)
		opt.Progress, finish = victimSpans(cfg.spans, id)
		passStart := time.Now()
		c, err := atk.RunAllContext(ctx, z.FineTuned, opt)
		passEnd := time.Now()
		finish(passEnd)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		cfg.spans.add(id, "", "core.campaign", passStart, passEnd)
		o.campaigns = append(o.campaigns, passEnd.Sub(passStart).Seconds())
		checkCampaign(o, id, z.FineTuned, c, pass < exactPasses)
		hammer += c.TotalHammerRounds()
		physical += c.TotalPhysicalReads
	}
	o.phase = time.Since(start).Seconds()
	o.attack = median(o.campaigns)
	o.note("campaign passes (s): %.3f", o.campaigns)
	if cfg.traced() {
		snap := reg.Snapshot()
		o.check(snap.Counters["sidechannel.hammer_rounds"] == hammer,
			"campaign hammer rounds %d do not reconcile with the registry's %d", hammer, snap.Counters["sidechannel.hammer_rounds"])
		o.check(snap.Counters["sidechannel.bit_reads_physical"] == physical,
			"campaign physical reads %d do not reconcile with the registry's %d", physical, snap.Counters["sidechannel.bit_reads_physical"])
		attackLayers(o, snap)
	}
	return nil
}

// checkCampaign counts a campaign's victim attacks and checks its
// outputs: every victim reported, in input order, with consistent
// accounting. exact adds the reports to the deterministic outputs.
func checkCampaign(o *outcome, id string, victims []*zoo.FineTuned, c *core.Campaign, exact bool) {
	o.check(c.Victims == len(victims) && len(c.Reports) == len(victims),
		"%s: %d of %d victims reported", id, len(c.Reports), len(victims))
	var hammer int64
	for i, rep := range c.Reports {
		o.victims++
		o.check(i < len(victims) && rep.Victim == victims[i].Name,
			"%s: report %d is for %q, out of input order", id, i, rep.Victim)
		o.check(rep.ExtractError == "" && !rep.ExtractInterrupted,
			"%s: victim %s extraction failed or was interrupted: %q", id, rep.Victim, rep.ExtractError)
		var rounds int64
		if rep.Extract != nil {
			rounds = rep.Extract.HammerRounds()
		}
		hammer += rounds
		if exact {
			o.exact.add(rep.CorrectIdentity, rep.Extract != nil, rep.MatchRate, rounds)
		}
	}
	o.check(hammer == c.TotalHammerRounds(),
		"%s: per-victim hammer rounds %d do not sum to the campaign's %d", id, hammer, c.TotalHammerRounds())
}

// attackLayers reads the attack-phase timers and counters the program
// exports through the traced run's registry.
func attackLayers(o *outcome, snap obs.Snapshot) {
	t := func(name string) float64 { return snap.Timers[name].Seconds }
	n := func(name string) float64 { return float64(snap.Counters[name]) }
	o.layers["core.identify_s"] = t("core.phase.identify_seconds")
	o.layers["core.extract_s"] = t("core.phase.extract_seconds")
	o.layers["core.evaluate_s"] = t("core.phase.evaluate_seconds")
	o.layers["core.victim_queries"] = n("core.victim_queries")
	o.layers["extract.layer_s"] = t("extract.layer_seconds")
	o.layers["extract.retries"] = n("extract.retries")
	o.layers["sidechannel.phys_reads"] = n("sidechannel.bit_reads_physical")
	o.layers["sidechannel.read_faults"] = n("sidechannel.read_faults")
	o.layers["extract.read_yield"] = ratio(n("extract.bits_logical")+n("extract.head_bits_logical"),
		n("sidechannel.bit_reads_physical")+n("sidechannel.read_faults"))
}

// derive maps the workload seed to the seed of one generated input. The
// benchmark derives its own inputs so that a change to the program's
// random streams cannot change what the benchmark asks of it.
func derive(seed uint64, label string, i uint64) uint64 {
	h := seed
	for _, b := range []byte(label) {
		h = splitmix(h ^ uint64(b))
	}
	h = splitmix(h ^ i)
	if h == 0 {
		return 1 // the program reads a zero seed as "use the default"
	}
	return h
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
