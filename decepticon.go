// Package decepticon is a from-scratch Go reproduction of "Decepticon:
// Attacking Secrets of Transformers" (IISWC 2023): a two-level model
// extraction attack on transfer-learned transformer models.
//
// Level 1 identifies a black-box victim's pre-trained model from its GPU
// kernel execution fingerprint (a CNN classifier over rendered
// time-series traces, §5.4), disambiguating same-profile candidates with
// query-output probes (§5.3). Level 2 clones the victim's weights from
// the identified pre-trained baseline via a rowhammer-style bit-read side
// channel, reading at most two fraction bits per weight (Algorithm 1).
//
// Everything the paper's evaluation depends on is built in-process and
// from scratch: transformer training (internal/transformer), a model zoo
// of 70 pre-trained + 170 fine-tuned releases (internal/zoo), a GPU
// kernel execution simulator standing in for CUDA profiling
// (internal/gpusim), the side channels (internal/sidechannel), and the
// attack itself (internal/core). See DESIGN.md for the system inventory
// and EXPERIMENTS.md for paper-vs-measured results.
//
// Quick start:
//
//	z := decepticon.MustBuildZoo(decepticon.SmallZooConfig())
//	atk, _ := decepticon.NewAttack(z, decepticon.DefaultPrepareConfig())
//	report, err := atk.Run(z.FineTuned[0], decepticon.RunOptions{})
//
// Every table and figure of the paper regenerates through the Experiments
// environment (also exposed by cmd/experiments):
//
//	exp := decepticon.NewExperiments(decepticon.ScaleSmall)
//	exp.Run("fig14", os.Stdout)
//
// The heavy phases — zoo construction, trace measurement, and -all attack
// campaigns — run on a bounded worker pool (internal/parallel). The
// Workers fields on ZooConfig, PrepareConfig, RunOptions, and Experiments
// bound the goroutine count (<= 0 means all cores); every stochastic item
// derives its seed from its own name or index, so results are
// byte-for-byte identical for any worker count. See the "Parallelism &
// determinism" section of README.md.
//
// Every heavy phase also has a context-aware variant (BuildZooContext,
// NewAttackContext, Attack.RunContext, Attack.RunAllContext,
// Attack.RunAllStream): cancelling the context interrupts the work at
// the next stage boundary, and a cancelled extraction checkpoints and
// reports Report.ExtractInterrupted exactly as a read-budget exhaustion
// does, so a Ctrl-C'd campaign resumes byte-identically with
// RunOptions.Resume. Campaigns can stream per-victim reports in
// deterministic order with bounded memory via Attack.RunAllStream; see
// DESIGN.md §11 for the pipeline and cancellation contracts.
package decepticon

import (
	"context"
	"io"

	"decepticon/internal/core"
	"decepticon/internal/experiments"
	"decepticon/internal/extract"
	"decepticon/internal/fingerprint"
	"decepticon/internal/obs"
	"decepticon/internal/pipeline"
	"decepticon/internal/sidechannel"
	"decepticon/internal/zoo"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Zoo is the model population: pre-trained releases and their
	// fine-tuned descendants (the victims).
	Zoo = zoo.Zoo
	// ZooConfig controls zoo construction.
	ZooConfig = zoo.BuildConfig
	// Pretrained is one pre-trained model release.
	Pretrained = zoo.Pretrained
	// FineTuned is a black-box victim model.
	FineTuned = zoo.FineTuned
	// Attack is a prepared Decepticon instance.
	Attack = core.Attack
	// PrepareConfig controls level-1 classifier training.
	PrepareConfig = core.PrepareConfig
	// RunOptions controls one attack run.
	RunOptions = core.RunOptions
	// Report is the outcome of one end-to-end attack.
	Report = core.Report
	// Campaign aggregates the outcome of attacking many victims
	// (Attack.RunAll).
	Campaign = core.Campaign
	// Modality names one level-1 measurement channel (kernel trace,
	// power/thermal, aggregate counters). Select with
	// PrepareConfig.Modalities and RunOptions.Modalities; jam sensors at
	// attack time with RunOptions.Jammed.
	Modality = fingerprint.Modality
	// ReportStream yields one *Report per victim in deterministic input
	// order with bounded buffering (Attack.RunAllStream).
	ReportStream = core.ReportStream
	// Clock is the pipeline's injectable time source (see
	// RunOptions.Clock); the default is a deterministic simulated clock.
	Clock = pipeline.Clock
	// ExtractionConfig tunes the selective weight extraction.
	ExtractionConfig = extract.Config
	// ExtractionStats is the extraction cost/correctness accounting.
	ExtractionStats = extract.Stats
	// RetryPolicy controls how the extraction reacts to channel faults
	// (bounded exponential backoff, per-tensor retry budgets, read-repeat
	// escalation on suspected stuck bits). Set via ExtractionConfig.Retry.
	RetryPolicy = extract.RetryPolicy
	// FaultPlan injects deterministic, seeded channel faults (transient
	// read errors, stuck-at bits, region outages) into the rowhammer
	// oracle. Pass via RunOptions.FaultPlan.
	FaultPlan = sidechannel.FaultPlan
	// StuckRange pins a weight-index range of a tensor to stuck-at-zero
	// bits (FaultPlan.StuckRanges).
	StuckRange = sidechannel.StuckRange
	// Outage marks a simulated-clock window in which a tensor's region is
	// unreadable (FaultPlan.Outages).
	Outage = sidechannel.Outage
	// Experiments regenerates the paper's tables and figures.
	Experiments = experiments.Env
	// Scale selects the experiment budget.
	Scale = experiments.Scale
	// Metrics is a registry of named counters, gauges, and timers. Attach
	// one via ZooConfig.Obs, PrepareConfig.Obs (carried into Attack), or
	// Experiments.Obs, then export with Snapshot.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a Metrics registry,
	// serializable as JSON or Prometheus text.
	MetricsSnapshot = obs.Snapshot
	// Tracer records hierarchical spans on deterministic simulated
	// clocks and exports Chrome/Perfetto trace_event JSON. Attach via
	// Metrics.SetTracer; a nil Tracer is a valid no-op.
	Tracer = obs.Tracer
	// TraceEvent is one exported trace_event record.
	TraceEvent = obs.TraceEvent
	// FlightRecorder is a bounded ring of the most recent trace and
	// fault events — the black-box record dumped when an extraction is
	// interrupted or fails. Attach via Metrics.SetFlight.
	FlightRecorder = obs.FlightRecorder
	// FlightEvent is one retained flight-recorder entry.
	FlightEvent = obs.FlightEvent
	// FlightDump is the serialized form of a flight-recorder dump.
	FlightDump = obs.FlightDump
)

// Measurement modalities (see DESIGN.md §14).
const (
	// ModalityTrace is the paper's kernel launch timeline channel,
	// identified by the CNN fingerprint classifier. The default.
	ModalityTrace = fingerprint.ModalityTrace
	// ModalityPower is the simulated board power/thermal channel
	// (Energon-style), identified by a dense classifier.
	ModalityPower = fingerprint.ModalityPower
	// ModalityCounters is the simulated aggregate profiler-counter
	// channel (InferNet-style), identified by a dense classifier.
	ModalityCounters = fingerprint.ModalityCounters
)

// ParseModalities parses a comma-separated modality list (the
// cmd/decepticon -modalities syntax). An empty string returns nil (the
// kernel-trace channel alone); unknown or duplicate names are errors.
func ParseModalities(s string) ([]Modality, error) {
	return fingerprint.ParseModalities(s)
}

// Experiment scales.
const (
	// ScaleSmall runs on the reduced zoo (fast; tests and demos).
	ScaleSmall = experiments.ScaleSmall
	// ScaleFull runs on the paper-sized population (70 pre-trained, 170
	// fine-tuned models; several minutes on one core).
	ScaleFull = experiments.ScaleFull
)

// DefaultZooConfig returns the paper-sized population configuration.
func DefaultZooConfig() ZooConfig { return zoo.DefaultBuildConfig() }

// SmallZooConfig returns a reduced population for fast runs.
func SmallZooConfig() ZooConfig { return zoo.SmallBuildConfig() }

// TraceOnlyZooConfig returns a population with minimal training — enough
// for fingerprint-only studies.
func TraceOnlyZooConfig() ZooConfig { return zoo.TraceOnlyBuildConfig() }

// TinyZooConfig returns the smallest useful population (a few tiny
// architectures, seconds to build) — for smoke tests and metrics
// plumbing checks, not for reproducing paper numbers.
func TinyZooConfig() ZooConfig { return zoo.TinyBuildConfig() }

// BuildZoo trains the model population described by cfg. It fails only
// on a malformed configuration (no catalog entries selected, or more
// models requested than the catalog holds).
func BuildZoo(cfg ZooConfig) (*Zoo, error) { return zoo.Build(cfg) }

// BuildZooContext is BuildZoo with cooperative cancellation: a
// cancelled ctx stops the build at the next model boundary and returns
// the context's error (wrapped).
func BuildZooContext(ctx context.Context, cfg ZooConfig) (*Zoo, error) {
	return zoo.BuildContext(ctx, cfg)
}

// MustBuildZoo is BuildZoo for known-good configurations; it panics on
// error. The package's own presets (DefaultZooConfig, SmallZooConfig,
// TraceOnlyZooConfig) are always valid.
func MustBuildZoo(cfg ZooConfig) *Zoo { return zoo.MustBuild(cfg) }

// ZooStoreStats reports what a store open did: how many models were
// trained or reused from existing objects.
type ZooStoreStats = zoo.StoreStats

// BuildOrOpenZooStore materializes the population from a content-addressed
// store directory, the zoo's only on-disk form: models whose configuration
// hash matches an existing object are served as lazy handles (loaded on
// first use, releasable), and only entries whose inputs changed are
// retrained. A non-nil zoo returned with an error means only the manifest
// write failed; the population is usable.
func BuildOrOpenZooStore(ctx context.Context, cfg ZooConfig, dir string) (*Zoo, *ZooStoreStats, error) {
	return zoo.BuildOrOpenStore(ctx, cfg, dir, "")
}

// DefaultPrepareConfig returns the standard level-1 training setup.
func DefaultPrepareConfig() PrepareConfig { return core.DefaultPrepareConfig() }

// NewAttack prepares a Decepticon attack over the candidate pool z:
// it collects trace measurements of every model and trains the
// pre-trained model extractor. It fails only on a malformed
// configuration (e.g. a non-positive trace image size).
func NewAttack(z *Zoo, cfg PrepareConfig) (*Attack, error) { return core.Prepare(z, cfg) }

// NewAttackContext is NewAttack with cooperative cancellation:
// classifier training aborts at the next epoch boundary when ctx is
// cancelled and the context's error is returned (wrapped).
func NewAttackContext(ctx context.Context, z *Zoo, cfg PrepareConfig) (*Attack, error) {
	return core.PrepareContext(ctx, z, cfg)
}

// NewMetrics returns an empty metrics registry. See internal/obs for
// the instrument semantics; a nil *Metrics is a valid no-op everywhere
// one is accepted.
func NewMetrics() *Metrics { return obs.New() }

// WriteMetricsFile snapshots m and writes it to path: ".json" files get
// the JSON encoding, everything else Prometheus text exposition.
func WriteMetricsFile(m *Metrics, path string) error {
	return m.Snapshot().WriteFile(path)
}

// ServeMetrics starts a background HTTP server on addr exposing
// /metrics (Prometheus), /metrics.json, /debug/vars, and
// /debug/pprof/*. It returns the bound address (useful with ":0") and a
// shutdown function that drains in-flight requests and closes the
// listener; callers that want process-lifetime serving never call it.
func ServeMetrics(addr string, m *Metrics) (string, func(context.Context) error, error) {
	return obs.Serve(addr, m)
}

// NewTracer returns an empty tracer. Attach it with
// Metrics.SetTracer before running the pipeline, then export with
// WriteTraceFile. Trace files contain only simulated clocks, so they
// are byte-identical for any worker count.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewFlightRecorder returns a flight recorder retaining the last
// `capacity` events (<= 0 selects the default of 512). Attach it with
// Metrics.SetFlight; set its RunID field to tag dumps.
func NewFlightRecorder(capacity int) *FlightRecorder {
	return obs.NewFlightRecorder(capacity)
}

// RunID derives a stable run identifier from the given labels
// (typically os.Args) for tagging logs and flight dumps.
func RunID(labels ...string) string { return obs.RunID(labels...) }

// ConfigureLogging attaches a leveled structured text logger to the
// registry, writing to w with the run id on every record. level is the
// -log-level flag syntax: debug, info, warn, error, or "" / "off" for
// disabled (a no-op). An unknown level is an error.
func ConfigureLogging(m *Metrics, w io.Writer, level, runID string) error {
	lvl, enabled, err := obs.ParseLogLevel(level)
	if err != nil || !enabled {
		return err
	}
	m.SetLogger(obs.NewLogger(w, lvl, runID))
	return nil
}

// WriteTraceFile exports a tracer as a Chrome/Perfetto-loadable
// trace_event JSON file.
func WriteTraceFile(t *Tracer, path string) error { return t.WriteFile(path) }

// ReadFlightFile parses a flight-recorder dump file.
func ReadFlightFile(path string) (FlightDump, error) { return obs.ReadFlightFile(path) }

// DefaultExtractionConfig returns the paper's selective-extraction
// operating point (0.001 skip threshold, ≤2 bits per weight).
func DefaultExtractionConfig() ExtractionConfig { return extract.DefaultConfig() }

// DefaultRetryPolicy returns the standard fault reaction (8 attempts,
// exponential backoff from 32 to 4096 simulated rounds, 4096 retries per
// tensor, 5-vote escalation).
func DefaultRetryPolicy() RetryPolicy { return extract.DefaultRetryPolicy() }

// ParseFaultPlan parses a "key=value,key=value" fault-plan spec (the
// cmd/decepticon -faults syntax): seed, transient, recovery, stuck,
// outage, period. An empty spec returns a nil plan (fault-free channel).
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	return sidechannel.ParseFaultPlan(spec)
}

// ErrExtractionInterrupted is returned (wrapped) by an extraction that
// hit its read budget — or whose context was cancelled — after
// checkpointing; match with errors.Is. Campaign runs surface it as
// Report.ExtractInterrupted instead of an error.
var ErrExtractionInterrupted = extract.ErrInterrupted

// NewExperiments returns an experiment environment at the given scale.
func NewExperiments(scale Scale) *Experiments { return experiments.NewEnv(scale) }

// ExperimentIDs lists every reproducible table/figure id.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentTitles lists "id: title" for every experiment.
func ExperimentTitles() []string { return experiments.Titles() }
