// Package core wires the full Decepticon attack together (paper Fig 1):
//
//	victim inference ──side channel──▶ kernel trace ──▶ CNN extractor
//	      │                                              │ top-k
//	      │ query outputs ◀── variant detector ◀─────────┘ (ambiguity)
//	      ▼                                              ▼
//	rowhammer oracle ◀── selective weight extraction ◀── identified
//	      │                                              pre-trained model
//	      ▼
//	   clone model ──▶ adversarial attack on the victim
//
// Level 1 identifies the victim's pre-trained model from its execution
// fingerprint (plus query probes for profile-ambiguous candidates);
// level 2 clones the victim's weights from the identified baseline with
// minimal bit reads.
package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"decepticon/internal/extract"
	"decepticon/internal/fingerprint"
	"decepticon/internal/obs"
	"decepticon/internal/parallel"
	"decepticon/internal/pipeline"
	"decepticon/internal/sidechannel"
	"decepticon/internal/transformer"
	"decepticon/internal/zoo"
)

// Attack is a prepared Decepticon instance: a candidate pool and a trained
// pre-trained model extractor.
type Attack struct {
	Zoo        *zoo.Zoo
	Classifier *fingerprint.Classifier
	// PowerClf / CounterClf identify from the derived power/thermal and
	// aggregate-counter channels (see gpusim/channels.go); nil means that
	// modality is unavailable and any run requesting it degrades to the
	// surviving sensors. Prepare trains them when PrepareConfig.Modalities
	// asks for the extra channels.
	PowerClf   *fingerprint.VectorClassifier
	CounterClf *fingerprint.VectorClassifier
	// FusionWeights are the per-modality log-pooling weights the fused
	// identifier uses (nil = equal weights). Prepare fills them from each
	// classifier's calibration accuracy on its training set.
	FusionWeights map[fingerprint.Modality]float64
	// Hier, when non-nil, replaces the flat classifier as the trace
	// sensor's identifier with the two-level family→release hierarchy
	// (trained when PrepareConfig.Hierarchical is set), alone or under
	// fusion with the other sensors. The flat classifier is still trained
	// — the fusion-weight calibration uses it — but trace identification
	// walks the hierarchy, whose cost stays sub-linear in the zoo's
	// release count.
	Hier       *fingerprint.Hierarchical
	ExtractCfg extract.Config
	// Obs receives the attack's cost accounting (phase wall times, victim
	// queries, and — through the oracle and extractor it is handed to —
	// hammer rounds and bit reads). nil runs un-instrumented.
	Obs *obs.Registry
}

// PrepareConfig controls attack preparation.
type PrepareConfig struct {
	// SamplesPerModel trace measurements feed the CNN's training set.
	SamplesPerModel int
	// ImgSize is the trace-image resolution (32 or 64).
	ImgSize int
	// Epochs / LR train the CNN (paper: 10 epochs at 0.001; our reduced
	// image scale trains longer).
	Epochs int
	LR     float64
	Seed   uint64
	// Workers bounds the goroutines used for trace measurement and image
	// rendering; <= 0 selects GOMAXPROCS. Purely a throughput knob: the
	// trained classifier is identical for any value.
	Workers int
	// Obs instruments preparation and is carried into the prepared
	// Attack (dataset/train wall time, then per-run attack accounting).
	Obs *obs.Registry
	// Modalities lists the extra measurement channels to train
	// identifiers for (power, counters; trace is always trained). The
	// vector classifiers train on features derived from the same trace
	// dataset, so no second measurement pass is paid.
	Modalities []fingerprint.Modality
	// Hierarchical additionally trains the two-level family→release
	// identifier (fingerprint.Hierarchical) on the same dataset and
	// installs it as the trace sensor's identifier. Intended for large
	// zoos, where the flat CNN's class count grows with every release but
	// the hierarchy's family level stays fixed.
	Hierarchical bool
}

// DefaultPrepareConfig returns a preparation setup matched to the zoo
// scale.
func DefaultPrepareConfig() PrepareConfig {
	return PrepareConfig{SamplesPerModel: 5, ImgSize: 64, Epochs: 60, LR: 0.002, Seed: 7}
}

// Prepare trains the level-1 extractor over the candidate pool. The
// training set is augmented with noisy trace copies so the classifier
// tolerates measurement noise (§7.2).
//
// Zero-valued fields of cfg are filled individually from
// DefaultPrepareConfig — a caller setting only, say, Epochs keeps that
// choice instead of having the whole config silently replaced. A
// non-zero ImgSize other than 32 or 64 is caller-facing input and is
// rejected with an error up front rather than panicking deep inside the
// CNN constructor.
func Prepare(z *zoo.Zoo, cfg PrepareConfig) (*Attack, error) {
	return PrepareContext(context.Background(), z, cfg)
}

// PrepareContext is Prepare with cooperative cancellation: the context
// is checked between the dataset and training phases and polled at each
// training epoch, so a cancelled preparation stops within one epoch and
// returns ctx's error instead of a half-trained attack.
func PrepareContext(ctx context.Context, z *zoo.Zoo, cfg PrepareConfig) (*Attack, error) {
	def := DefaultPrepareConfig()
	if cfg.SamplesPerModel <= 0 {
		cfg.SamplesPerModel = def.SamplesPerModel
	}
	if cfg.ImgSize == 0 {
		cfg.ImgSize = def.ImgSize
	}
	if cfg.ImgSize != 32 && cfg.ImgSize != 64 {
		return nil, fmt.Errorf("core: PrepareConfig.ImgSize %d unsupported (use 32 or 64, or 0 for the default)", cfg.ImgSize)
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = def.Epochs
	}
	if cfg.LR == 0 {
		cfg.LR = def.LR
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: prepare cancelled: %w", err)
	}
	dataSpan := cfg.Obs.StartSpan("fingerprint.dataset_seconds")
	d := fingerprint.BuildDataset(z, cfg.SamplesPerModel, cfg.Seed, cfg.Workers)
	d.AugmentNoise(1, 4, 2, cfg.Seed+9, cfg.Workers)
	dataSpan.End()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: prepare cancelled: %w", err)
	}
	clf := fingerprint.NewClassifier(cfg.ImgSize, d.Classes, cfg.Seed+1)
	clf.Workers = cfg.Workers
	clf.Obs = cfg.Obs
	clf.TrainContext(ctx, d, fingerprint.TrainConfig{Epochs: cfg.Epochs, LR: cfg.LR, Seed: cfg.Seed + 2})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: prepare cancelled: %w", err)
	}
	atk := &Attack{Zoo: z, Classifier: clf, ExtractCfg: extract.DefaultConfig(), Obs: cfg.Obs}
	if cfg.Hierarchical {
		h, err := fingerprint.TrainHierarchical(ctx, z, d, cfg.ImgSize,
			fingerprint.TrainConfig{Epochs: cfg.Epochs, LR: cfg.LR, Seed: cfg.Seed + 3},
			cfg.Workers, cfg.Obs)
		if err != nil {
			return nil, fmt.Errorf("core: prepare cancelled: %w", err)
		}
		atk.Hier = h
	}
	if err := atk.prepareModalities(ctx, d, cfg); err != nil {
		return nil, err
	}
	return atk, nil
}

// prepareModalities trains the extra per-modality identifiers requested
// by cfg.Modalities on feature datasets derived from the same augmented
// trace corpus, then calibrates the fusion weights from each
// identifier's training-set accuracy.
func (a *Attack) prepareModalities(ctx context.Context, d *fingerprint.Dataset, cfg PrepareConfig) error {
	weights := map[fingerprint.Modality]float64{}
	trained := false
	for _, m := range cfg.Modalities {
		if m == fingerprint.ModalityTrace {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: prepare cancelled: %w", err)
		}
		vd := fingerprint.VectorizeDataset(d, m, cfg.Seed+31, cfg.Workers)
		vc := fingerprint.NewVectorClassifier(m, vd.Dim, vd.Classes, cfg.Seed+37)
		vc.Workers = cfg.Workers
		vc.Obs = cfg.Obs
		vc.Train(vd, fingerprint.TrainConfig{Epochs: cfg.Epochs, LR: cfg.LR, Seed: cfg.Seed + 41})
		switch m {
		case fingerprint.ModalityPower:
			a.PowerClf = vc
		case fingerprint.ModalityCounters:
			a.CounterClf = vc
		}
		weights[m] = vc.Accuracy(vd)
		trained = true
	}
	if !trained {
		return nil
	}
	// The CNN's calibration accuracy anchors the trace weight; the
	// sharpened normalization keeps the strongest sensor dominant.
	weights[fingerprint.ModalityTrace] = a.Classifier.Accuracy(d)
	mods := make([]fingerprint.Modality, 0, len(weights))
	for _, m := range fingerprint.AllModalities() {
		if _, ok := weights[m]; ok {
			mods = append(mods, m)
		}
	}
	accs := make([]float64, len(mods))
	for i, m := range mods {
		accs[i] = weights[m]
	}
	fused := fingerprint.FusionWeights(accs)
	a.FusionWeights = map[fingerprint.Modality]float64{}
	for i, m := range mods {
		a.FusionWeights[m] = fused[i]
	}
	a.Obs.Log().Info("fusion weights calibrated", "weights", fmt.Sprint(a.FusionWeights))
	return nil
}

// Report is the outcome of one end-to-end attack.
type Report struct {
	Victim         string
	TruePretrained string

	// Level 1.
	Identified      string
	CorrectIdentity bool
	UsedQueryProbes bool
	ProbeQueries    int
	// ArchConfirmed reports whether the bus-probe allocation map of the
	// victim (§3's "memory addresses" hint) matches the identified
	// candidate's architecture — a cheap cross-check before committing to
	// the expensive rowhammer phase.
	ArchConfirmed bool
	// Modalities lists the measurement channels that contributed to this
	// identification. It is filled only when the run asked for more than
	// the plain kernel trace (another modality, or jamming); a default
	// run leaves it empty. JammedModalities lists requested sensors that
	// were jammed; IdentifyDegraded is set when any requested sensor was
	// jammed or absent and the run fell back to the survivors.
	Modalities       []string
	JammedModalities []string
	IdentifyDegraded bool

	// Level 2.
	Extract *extract.Stats
	// ExtractError records why the weight extraction failed (e.g. a
	// malformed address map), leaving the rest of the report valid — one
	// bad victim degrades gracefully instead of killing a campaign.
	ExtractError string
	// ExtractSkipped records why extraction was never attempted (the
	// identified architecture does not match the victim's bus-probe
	// layout) — distinct from ExtractError, which means extraction ran
	// and failed.
	ExtractSkipped string
	// ExtractInterrupted reports that the extraction hit
	// RunOptions.ReadBudget or was cancelled through the run's context
	// and checkpointed instead of completing; rerun with Resume to
	// continue from the checkpoint.
	ExtractInterrupted bool
	MatchRate          float64 // clone vs victim predictions on held-out inputs
	VictimAcc          float64
	CloneAcc           float64
	VictimF1           float64
	CloneF1            float64

	// Optional adversarial stage.
	AdvClone       float64   // clone-driven success rate
	AdvSubstitutes []float64 // distillation substitutes' success rates
	// AdvSkipped records, per requested substitute that could not be
	// built, why no valid distillation baseline existed (e.g. no
	// pre-trained candidate with a compatible vocabulary besides the
	// victim's own release).
	AdvSkipped []string
	Clone      *transformer.Model
}

// Campaign aggregates the outcome of attacking many victims.
type Campaign struct {
	Victims       int
	Identified    int // correct pre-trained identification
	ProbeResolved int // identifications that needed query probes
	ArchConfirmed int // bus-probe architecture checks that passed
	ExtractFailed int // victims whose extraction errored (see Report.ExtractError)
	// ExtractSkipped counts victims whose extraction was never attempted
	// (architecture mismatch); ExtractInterrupted counts victims that hit
	// the read budget and checkpointed — both distinct from failures.
	ExtractSkipped     int
	ExtractInterrupted int
	// IdentifyDegraded counts victims identified with at least one
	// measurement modality jammed or absent (see Report.IdentifyDegraded).
	IdentifyDegraded int
	// TensorsDegraded sums the tensors that fell back to the pre-trained
	// baseline under channel faults; MeanCoverage averages the extracted
	// fraction over runs where extraction happened.
	TensorsDegraded int
	MeanCoverage    float64
	MeanMatchRate   float64 // over runs where extraction happened
	MeanReduction   float64 // bit-read reduction factor
	// TotalBitsRead sums the *logical* bits recovered across victims;
	// TotalPhysicalReads sums the metered oracle reads (×ReadRepeats
	// under majority voting). int64: campaign-scale totals overflow
	// 32-bit arithmetic once multiplied into hammer rounds.
	TotalBitsRead      int64
	TotalPhysicalReads int64
	// TotalOracleAttempts additionally counts faulted reads — the full
	// channel spend a budget (per-victim ReadBudget, or a service
	// tenant's allowance) is charged against.
	TotalOracleAttempts int64
	Reports             []*Report
}

// TotalHammerRounds returns the campaign's simulated rowhammer spend,
// driven by physical reads.
func (c *Campaign) TotalHammerRounds() int64 {
	return c.TotalPhysicalReads * sidechannel.HammerRoundsPerBit
}

// IdentificationRate returns the fraction of victims whose pre-trained
// model was identified correctly.
func (c *Campaign) IdentificationRate() float64 {
	if c.Victims == 0 {
		return 0
	}
	return float64(c.Identified) / float64(c.Victims)
}

// campaignAgg accumulates a Campaign incrementally as reports are
// delivered, so a streaming campaign never has to retain every report to
// produce its summary. Reports are always added in victim input order
// for any worker count, so the floating-point means are byte-identical
// to the batch aggregation this replaces.
type campaignAgg struct {
	c                                   Campaign
	matchSum, reductionSum, coverageSum float64
	extracted                           int
}

func (g *campaignAgg) add(rep *Report) {
	c := &g.c
	c.Victims++
	if rep.CorrectIdentity {
		c.Identified++
	}
	if rep.UsedQueryProbes && rep.CorrectIdentity {
		c.ProbeResolved++
	}
	if rep.ArchConfirmed {
		c.ArchConfirmed++
	}
	if rep.ExtractError != "" {
		c.ExtractFailed++
	}
	if rep.ExtractSkipped != "" {
		c.ExtractSkipped++
	}
	if rep.ExtractInterrupted {
		c.ExtractInterrupted++
	}
	if rep.IdentifyDegraded {
		c.IdentifyDegraded++
	}
	if rep.Extract != nil {
		g.extracted++
		g.matchSum += rep.MatchRate
		g.reductionSum += rep.Extract.ReductionFactor()
		g.coverageSum += rep.Extract.Coverage()
		c.TensorsDegraded += rep.Extract.TensorsDegraded
		c.TotalBitsRead += rep.Extract.LogicalBitsRead()
		c.TotalPhysicalReads += rep.Extract.PhysicalBitReads
		c.TotalOracleAttempts += rep.Extract.OracleAttempts()
	}
}

// campaign finalizes the means over the reports added so far and returns
// a copy of the summary (Reports unset — the aggregator never holds
// them).
func (g *campaignAgg) campaign() *Campaign {
	c := g.c
	if g.extracted > 0 {
		c.MeanMatchRate = g.matchSum / float64(g.extracted)
		c.MeanReduction = g.reductionSum / float64(g.extracted)
		c.MeanCoverage = g.coverageSum / float64(g.extracted)
	}
	return &c
}

// ReportStream is a campaign in flight: victims are attacked on a
// bounded worker pool behind it while Next delivers their reports one at
// a time, strictly in victim input order — the same sequence a serial
// campaign produces, for any worker count. At most a small window of
// undelivered reports (2× the worker count) is buffered, so campaign
// memory no longer grows with the victim list.
//
// Drain the stream to completion: the campaign's spans and trace lane
// close when Next first reports exhaustion. After that, Err explains an
// early stop (a victim's hard error, or the context's error after a
// cancellation) and Campaign summarizes the reports that were delivered.
type ReportStream struct {
	s        *parallel.Stream[*Report]
	agg      campaignAgg
	idx      int
	onReport func(index int, rep *Report)
	finish   func()
	done     bool
}

// Next blocks until the next victim's report is ready and returns it, in
// victim input order. It returns ok=false once the stream is exhausted —
// all victims delivered, or delivery stopped at the first failed victim
// or at the cancellation frontier (Err tells which). OnReport, when set,
// fires here, so its calls stay serialized and ordered exactly as the
// batch campaign delivered them.
func (rs *ReportStream) Next() (*Report, bool) {
	rep, ok := rs.s.Next()
	if !ok {
		if !rs.done {
			rs.done = true
			rs.finish()
		}
		return nil, false
	}
	if rs.onReport != nil {
		rs.onReport(rs.idx, rep)
	}
	rs.agg.add(rep)
	rs.idx++
	return rep, true
}

// Err reports why the stream stopped early: the first failed victim's
// error, else the context's error, else nil. Call it after Next returns
// false.
func (rs *ReportStream) Err() error { return rs.s.Err() }

// Campaign summarizes the reports delivered so far. After a full drain
// it equals the batch RunAll campaign except that Reports is nil — the
// stream exists so the caller controls report retention.
func (rs *ReportStream) Campaign() *Campaign { return rs.agg.campaign() }

// Buffered returns how many completed, undelivered reports the stream
// currently holds — always bounded by the delivery window. Exposed for
// the bounded-memory tests.
func (rs *ReportStream) Buffered() int { return rs.s.Buffered() }

// RunAllStream starts attacking every victim in the list on opt.Workers
// goroutines (<= 0 selects GOMAXPROCS) and returns the stream of their
// reports. Determinism matches RunAll: each victim's measurement seed is
// a function of its list index, shared models are only read, and
// delivery order is input order — the stream is identical for any worker
// count. Cancelling ctx stops new victims; in-flight extractions observe
// the same context and wind down through their checkpoint path.
func (a *Attack) RunAllStream(ctx context.Context, victims []*zoo.FineTuned, opt RunOptions) *ReportStream {
	span := a.Obs.StartSpan("core.campaign_seconds")
	pipe := a.Obs.Tracer().Track(obs.PidPipeline, 0, "pipeline")
	campaignSpan := pipe.Begin("campaign", obs.A("victims", len(victims)))
	a.Obs.Log().Info("campaign start", "victims", len(victims), "workers", opt.Workers)
	n := len(victims)
	s := parallel.StreamErr(ctx, n, opt.Workers, 2*parallel.Workers(opt.Workers),
		func(ctx context.Context, i int) (*Report, error) {
			o := opt
			o.MeasureSeed = opt.MeasureSeed + uint64(i)*7919
			// Stable campaign-lane assignment: trace lanes follow input
			// order, not completion order.
			o.traceTID = int64(i) + 1
			rep, err := a.RunContext(ctx, victims[i], o)
			if err != nil {
				return nil, fmt.Errorf("core: victim %s: %w", victims[i].Name, err)
			}
			return rep, nil
		})
	return &ReportStream{
		s:        s,
		onReport: opt.OnReport,
		finish: func() {
			// Mirrors the batch campaign's deferred bracketing, in the
			// same LIFO order it ran there.
			pipe.Advance(int64(n))
			campaignSpan.End()
			span.End()
		},
	}
}

// RunAllContext attacks every victim in the list and aggregates the
// outcomes, honoring ctx end to end: between victims, between stages,
// and down to individual oracle reads inside extractions. On a victim's
// hard error it returns (nil, error) like RunAll. On cancellation it
// returns the partial campaign over the victims that completed plus the
// context's error — interrupted extractions have already checkpointed,
// so a Resume run with the same options finishes the remainder without
// re-paying hammer rounds.
func (a *Attack) RunAllContext(ctx context.Context, victims []*zoo.FineTuned, opt RunOptions) (*Campaign, error) {
	rs := a.RunAllStream(ctx, victims, opt)
	reports := make([]*Report, 0, len(victims))
	for {
		rep, ok := rs.Next()
		if !ok {
			break
		}
		reports = append(reports, rep)
	}
	if err := rs.Err(); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			c := rs.Campaign()
			c.Reports = reports
			return c, err
		}
		return nil, err
	}
	c := rs.Campaign()
	c.Reports = reports
	return c, nil
}

// RunAll attacks every victim in the list and aggregates the outcomes.
// Victims run on opt.Workers goroutines (<= 0 selects GOMAXPROCS): each
// victim's measurement seed is a function of its list index, every model
// shared across victims (the zoo's pre-trained pool, the classifier) is
// only read, and reports land in input order with counters aggregated
// in delivery order — so the campaign is identical for any worker count.
func (a *Attack) RunAll(victims []*zoo.FineTuned, opt RunOptions) (*Campaign, error) {
	return a.RunAllContext(context.Background(), victims, opt)
}

// RunOptions controls one attack run.
type RunOptions struct {
	// MeasureSeed seeds the victim trace measurement.
	MeasureSeed uint64
	// Modalities selects the level-1 measurement channels for
	// identification (nil = the paper's kernel trace alone, a one-sensor
	// set through the same stages). With more than one modality
	// the victim still runs once — every sensor is passive — and the
	// per-modality posteriors fuse into one identification. A requested
	// modality whose classifier was never trained degrades the run to the
	// surviving sensors (metered on core.modality_absent) instead of
	// failing it.
	Modalities []fingerprint.Modality
	// Jammed lists sensors an active countermeasure blinds this run:
	// their channels record nothing, the run degrades to the surviving
	// modalities (metered on core.modality_jammed and
	// core.identify_degraded), and only a run with every sensor jammed or
	// absent errors.
	Jammed []fingerprint.Modality
	// Adversarial adds the §6.2 evaluation with NumSubstitutes baselines.
	Adversarial    bool
	NumSubstitutes int
	// FlipsPerInput is the adversarial token-substitution budget.
	FlipsPerInput int
	// BitErrorRate, when positive, degrades the rowhammer channel: each
	// oracle read flips with this probability. The noise stream is seeded
	// from the victim's name, so campaigns stay byte-identical for any
	// worker count. Pair with ExtractCfg.ReadRepeats to vote it away.
	BitErrorRate float64
	// FaultPlan, when non-nil, injects structured channel faults
	// (transient errors, stuck-at bits, region outages — see
	// sidechannel.FaultPlan). Each victim's faults derive from its name
	// via FaultPlan.ForVictim, so campaigns stay byte-identical for any
	// worker count. Pair with ExtractCfg.Retry to tune the reaction.
	FaultPlan *sidechannel.FaultPlan
	// ScheduledExtraction switches every victim's weight extraction to the
	// information-ordered bit-read scheduler (extract.SchedulerConfig) at
	// its default operating point: high-value fraction bits first, vote
	// width adapted to the channel's observed silent-flip rate (clamped to
	// ReadRepeats), and per-tensor posterior early exit. An explicit
	// ExtractCfg.Schedule takes precedence. The schedule is a pure
	// function of the pre-trained baseline, so campaigns stay
	// byte-identical for any worker count.
	ScheduledExtraction bool
	// CheckpointDir, when set, makes every victim's extraction persist a
	// resumable per-victim checkpoint (CheckpointDir/<victim>.ckpt). The
	// directory is created if missing.
	CheckpointDir string
	// Resume, when set with CheckpointDir, restores existing checkpoints
	// instead of starting fresh: completed victims return their stored
	// result, interrupted ones continue with zero re-paid hammer rounds.
	// The campaign must be re-run with the same zoo, config, FaultPlan,
	// and noise settings as the interrupted run.
	Resume bool
	// ReadBudget, when > 0, bounds each victim's metered oracle attempts
	// (successful + faulted). A victim that exceeds it checkpoints (when
	// CheckpointDir is set) and reports ExtractInterrupted instead of an
	// error. Cancelling the context passed to RunContext/RunAllContext/
	// RunAllStream interrupts an extraction through the same door.
	ReadBudget int64
	// Clock, when set, supplies each victim's pipeline clock (the factory
	// is called once per victim, so concurrent victims get independent
	// clocks). The default is a deterministic simulated clock advanced
	// only by simulated work — kernel-trace microseconds, oracle rounds,
	// validation forwards — so the per-phase histograms fed from it
	// (core.victim_identify_sim_us, core.victim_extract_rounds) are
	// byte-identical across machines and worker counts. Inject
	// pipeline.WallClock for operational wall-clock numbers at the cost
	// of that guarantee.
	Clock func() pipeline.Clock
	// Workers bounds the victims attacked concurrently by RunAll; <= 0
	// selects GOMAXPROCS. The campaign outcome is identical for any
	// value.
	Workers int
	// OnReport, when set, is called by RunAll with each victim's report.
	// Calls are serialized and arrive in victim input order (an ordered
	// sink bridges the worker pool), so progress output is deterministic.
	OnReport func(index int, rep *Report)
	// FlightPath, when set, is where the flight recorder attached to the
	// registry is dumped if this victim's extraction is interrupted,
	// fails, or degrades tensors under faults. With CheckpointDir set the
	// dump instead lands next to the checkpoint as <victim>.flight.json,
	// so each victim's post-mortem is its own file.
	FlightPath string
	// ReleaseModels drops each victim's lazily-loaded tensors (and its
	// backbone's) once that victim's report is final. With a store-backed
	// zoo the campaign's peak memory then tracks the handful of victims in
	// flight instead of the whole population; a later use transparently
	// reloads from the store, byte-identical. Resident (built-in-memory)
	// zoos ignore it.
	ReleaseModels bool
	// Progress, when set, receives live per-victim progress: each victim
	// registers an item keyed by its name, the pipeline annotates the
	// item's stage as it advances, and extraction credits completed
	// simulated units at every tensor boundary. The sim-unit side is
	// deterministic and worker-invariant (the planned total is a pure
	// function of config and baseline, completions land at deterministic
	// tensor boundaries); only the tracker's EWMA rate and ETA read wall
	// time. nil runs un-tracked — every hook is nil-safe.
	Progress *obs.ProgressTracker

	// traceTID is the campaign-lane thread id this victim's trace track
	// uses; RunAll assigns input-index+1 so lanes are stable across
	// worker counts. Zero (a direct Run call) maps to lane 1.
	traceTID int64
}

// pickSubstitute returns the s-th distillation baseline for the victim: a
// pre-trained model with a compatible vocabulary size that is not the
// victim's own release, scanning the pool from a per-s offset so distinct
// substitutes pick distinct baselines where possible. It returns nil when
// no pool member qualifies — stepping blindly to the next index (the old
// behavior) could land right back on the victim's own release or an
// incompatible vocabulary.
func pickSubstitute(z *zoo.Zoo, victim *zoo.FineTuned, s int) *zoo.Pretrained {
	n := len(z.Pretrained)
	for off := 0; off < n; off++ {
		p := z.Pretrained[(s+1+off)%n]
		// Compare vocabulary sizes through the architecture metadata, not
		// the models: scanning the pool must not force lazy tensor loads.
		if p.Name == victim.Pretrained.Name || p.Arch.Vocab != victim.Pretrained.Arch.Vocab {
			continue
		}
		return p
	}
	return nil
}

// checkpointName maps a victim name to a filesystem-safe checkpoint file
// name. Victim names come from zoo configuration and may hold separators
// or other characters that are unsafe in a single path element.
func checkpointName(victim string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, victim)
	return safe + ".ckpt"
}

// flightDumpPath returns where a victim's flight dump lands: next to its
// checkpoint when CheckpointDir is set, else RunOptions.FlightPath
// (empty = no dump).
func flightDumpPath(opt RunOptions, victim string) string {
	if opt.CheckpointDir != "" {
		return filepath.Join(opt.CheckpointDir,
			strings.TrimSuffix(checkpointName(victim), ".ckpt")+".flight.json")
	}
	return opt.FlightPath
}

// dumpFlight writes the attached flight recorder's post-mortem for a
// victim whose extraction went wrong. Nil-safe on every axis: without a
// recorder or a destination it is a no-op.
func (a *Attack) dumpFlight(opt RunOptions, victim, reason string) {
	f := a.Obs.Flight()
	path := flightDumpPath(opt, victim)
	if f == nil || path == "" {
		return
	}
	if err := f.Dump(path, reason); err != nil {
		a.Obs.Log().Error("flight dump failed", "victim", victim, "path", path, "err", err)
		return
	}
	a.Obs.Log().Info("flight recorder dumped", "victim", victim, "path", path, "reason", reason)
}

// Run executes the two-level attack against a black-box victim.
func (a *Attack) Run(victim *zoo.FineTuned, opt RunOptions) (*Report, error) {
	return a.RunContext(context.Background(), victim, opt)
}

// RunContext executes the two-level attack against a black-box victim as
// a staged pipeline (trace → identify → disambiguate → gate → extract →
// evaluate → adversarial), honoring ctx between stages and down to the
// individual oracle reads inside the extraction. A cancellation during
// extraction behaves exactly like read-budget exhaustion — checkpoint
// written, ExtractInterrupted reported, flight recorder dumped, report
// returned with a nil error; a cancellation between stages returns the
// context's error instead.
func (a *Attack) RunContext(ctx context.Context, victim *zoo.FineTuned, opt RunOptions) (*Report, error) {
	rep := &Report{
		Victim:         victim.Name,
		TruePretrained: victim.Pretrained.Name,
	}
	a.Obs.Counter("core.victims_attacked").Inc()
	log := a.Obs.Log().With("victim", victim.Name)
	log.Info("attack start")
	// The victim's trace lane: every phase span lands here, with the
	// lane clock advanced only by simulated quantities (kernel-trace
	// microseconds, oracle rounds, validation forwards) so the exported
	// trace is byte-identical for any worker count.
	tid := opt.traceTID
	if tid == 0 {
		tid = 1
	}
	tk := a.Obs.Tracer().Track(obs.PidCampaign, tid, victim.Name)
	attackSpan := tk.Begin("attack", obs.A("victim", victim.Name))
	defer attackSpan.End()
	vq := a.Obs.Counter("core.victim_queries")
	prog := opt.Progress.Item(victim.Name)
	r := &attackRun{
		a:      a,
		opt:    opt,
		victim: victim,
		rep:    rep,
		log:    log,
		tk:     tk,
		vq:     vq,
		prog:   prog,
	}
	// Every black-box interaction with the victim — query-output probes,
	// the extraction stop condition, adversarial transfer tests and
	// distillation records — goes through this counted path, so
	// core.victim_queries is the attacker's total query budget.
	r.countedPredict = func(tokens []int) int {
		vq.Inc()
		return victim.Model().Predict(tokens)
	}
	eng := &pipeline.Engine{
		Trace:        &multiMeasure{r: r, sensors: sensorsFor(r)},
		Identify:     &fusedIdentify{r: r},
		Disambiguate: r,
		Extract:      r, // attackRun is also Gated: the bus-probe arch check gates rowhammer
		Evaluate:     r,
	}
	if opt.Adversarial {
		eng.Adversarial = r
	}
	var clock pipeline.Clock
	if opt.Clock != nil {
		clock = opt.Clock()
	}
	err := eng.Run(&pipeline.State{Ctx: ctx, Obs: a.Obs, Track: tk, Clock: clock})
	if opt.ReleaseModels {
		// The victim's report is final (even on error): drop its tensors
		// and its backbone's so a lazily-loaded campaign holds only the
		// victims in flight. A shared backbone reloads on demand for the
		// next victim that needs it — pure CPU cost, never a correctness
		// one.
		victim.Release()
		victim.Pretrained.Release()
	}
	if err != nil {
		return nil, err
	}
	// Terminal progress state. Every non-interrupted outcome is finished
	// work for this victim — a skipped or failed extraction still ends the
	// victim's share of the campaign, so the item latches done and the
	// campaign fraction can reach exactly 1.0. An interrupted extraction
	// stays open: its checkpoint holds the completed units and a Resume
	// run ratchets onward from them.
	switch {
	case rep.ExtractInterrupted:
		prog.SetStage("interrupted")
	case rep.ExtractError != "":
		prog.SetStage("failed")
		prog.MarkDone()
	case rep.ExtractSkipped != "":
		prog.SetStage("skipped")
		prog.MarkDone()
	default:
		prog.SetStage("done")
		prog.MarkDone()
	}
	return rep, nil
}
