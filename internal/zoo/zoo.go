package zoo

import (
	"context"
	"fmt"
	"sync"

	"decepticon/internal/gpusim"
	"decepticon/internal/obs"
	"decepticon/internal/parallel"
	"decepticon/internal/rng"
	"decepticon/internal/task"
	"decepticon/internal/tokenizer"
	"decepticon/internal/transformer"
)

// Pretrained is one pre-trained model release. The tensors live behind a
// handle: resident when the model was just trained, lazy when it is
// backed by a zoo-store object file.
// Everything else (architecture, vocabulary, execution profile) is always
// in memory — identification-side code never needs to touch the weights.
type Pretrained struct {
	Name     string
	Arch     transformer.Config
	ArchName string
	Source   string
	Language string
	Cased    bool
	Vocab    *tokenizer.Vocab
	Profile  gpusim.Profile

	handle *transformer.Handle
}

// Model returns the release's weights, loading them from the store on
// first use when the release is lazily backed.
func (p *Pretrained) Model() *transformer.Model { return p.handle.Get() }

// Release drops store-backed tensors from memory; the next Model call
// reloads them byte-identically. No-op for resident models.
func (p *Pretrained) Release() { p.handle.Release() }

// Loaded reports whether the tensors are currently in memory.
func (p *Pretrained) Loaded() bool { return p.handle.Loaded() }

// Trace simulates one kernel-trace measurement of the model.
func (p *Pretrained) Trace(opt gpusim.Options) *gpusim.Trace {
	t := gpusim.SimulateTransformer(p.Arch, nil, p.Profile, opt)
	t.Model = p.Name
	return t
}

// FineTuned is a model fine-tuned from a pre-trained release on a
// downstream task. It is the black-box victim population.
type FineTuned struct {
	Name       string
	Pretrained *Pretrained
	Task       task.Task
	Train, Dev []transformer.Example

	handle *transformer.Handle
}

// Model returns the victim's weights, loading them from the store on
// first use when the victim is lazily backed.
func (f *FineTuned) Model() *transformer.Model { return f.handle.Get() }

// Release drops store-backed tensors from memory; the next Model call
// reloads them byte-identically. No-op for resident models.
func (f *FineTuned) Release() { f.handle.Release() }

// Loaded reports whether the tensors are currently in memory.
func (f *FineTuned) Loaded() bool { return f.handle.Loaded() }

// Trace simulates one kernel-trace measurement of the fine-tuned model.
// The fingerprint is inherited from the pre-trained release: only the
// task-head kernels at the trace tail differ.
func (f *FineTuned) Trace(opt gpusim.Options) *gpusim.Trace {
	m := f.Model()
	activeHeads := make([]int, m.Layers)
	for l, b := range m.Blocks {
		n := 0
		for _, pruned := range b.HeadPruned {
			if !pruned {
				n++
			}
		}
		activeHeads[l] = n
	}
	t := gpusim.SimulateTransformer(m.Config, activeHeads, f.Pretrained.Profile, opt)
	t.Model = f.Name
	return t
}

// ClassifyText answers a black-box text query: the victim tokenizes the
// text with its own (inherited) vocabulary and returns the predicted label
// and class probabilities. This is the only interface the attacker's
// query-output fingerprint uses.
func (f *FineTuned) ClassifyText(text string) (label int, probs []float32) {
	m := f.Model()
	tokens := f.Pretrained.Vocab.Tokenize(text, m.MaxSeq)
	return m.Predict(tokens), m.Probs(tokens)
}

// Zoo is the model population.
type Zoo struct {
	Pretrained []*Pretrained
	FineTuned  []*FineTuned
	// Config is the build configuration that produced this population,
	// with the instrumentation fields (Obs, OnProgress) zeroed.
	Config BuildConfig

	// Name lookups are hot in service victim resolution (every campaign
	// submit resolves its victims by name), so the first lookup builds a
	// map index over both populations instead of scanning linearly.
	indexOnce sync.Once
	preByName map[string]*Pretrained
	ftByName  map[string]*FineTuned
}

// BuildConfig controls zoo construction. The zero value is not valid; use
// DefaultBuildConfig or SmallBuildConfig.
type BuildConfig struct {
	NumPretrained    int
	NumFineTuned     int
	PretrainExamples int
	PretrainEpochs   int
	FineTuneExamples int
	FineTuneEpochs   int
	// FineTuneLR / FineTuneHeadLR / FineTuneDecay mirror standard
	// discriminative fine-tuning; the defaults reproduce the paper's
	// weight-gap structure (small backbone deltas, U-shaped vs. weight
	// value, large head deltas).
	FineTuneLR     float64
	FineTuneHeadLR float64
	FineTuneDecay  float64
	Seed           uint64
	// ArchFilter, when non-empty, restricts the catalog to the named
	// architectures (transformer.Family keys) — used by tests and quick
	// examples to avoid training large models.
	ArchFilter []string
	OnProgress func(stage string, done, total int) // optional progress hook
	// Workers bounds the number of models trained concurrently; <= 0
	// selects runtime.GOMAXPROCS(0). Every model derives its own seeds
	// from its name (rng.Seed("pretrain-train", name), ...), so the built
	// population is byte-for-byte identical for any worker count.
	Workers int
	// Obs, when set, receives the build's accounting: zoo.build_seconds
	// wall time and zoo.models_pretrained / zoo.models_finetuned counters.
	Obs *obs.Registry
}

// DefaultBuildConfig reproduces the paper's population: 70 pre-trained and
// 170 fine-tuned models.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{
		NumPretrained:    70,
		NumFineTuned:     170,
		PretrainExamples: 300,
		PretrainEpochs:   14,
		FineTuneExamples: 150,
		FineTuneEpochs:   8,
		FineTuneLR:       3e-5,
		FineTuneHeadLR:   3e-2,
		FineTuneDecay:    2.0,
		Seed:             1,
	}
}

// SmallBuildConfig is a fast population for tests and examples: it keeps
// the catalog's structure (an ambiguity cluster, several sources and
// frameworks) while restricting to the small architectures and a reduced
// training budget.
func SmallBuildConfig() BuildConfig {
	cfg := DefaultBuildConfig()
	cfg.NumPretrained = 12
	cfg.NumFineTuned = 20
	cfg.PretrainExamples = 240
	cfg.PretrainEpochs = 10
	cfg.FineTuneExamples = 120
	cfg.FineTuneEpochs = 6
	cfg.ArchFilter = []string{"tiny", "mini", "small"}
	return cfg
}

// profileSeed derives the release-profile seed from a profile key.
func profileSeed(key string) uint64 { return rng.Seed("profile", key) }

// progressCounter serializes BuildConfig.OnProgress callbacks behind a
// mutex and reports its own monotonically increasing completion count, so
// the hook sees done = 1, 2, ..., total in order no matter which worker
// finishes which model first.
type progressCounter struct {
	mu   sync.Mutex
	done int
	fn   func(stage string, done, total int)
}

func (p *progressCounter) tick(stage string, total int) {
	if p.fn == nil {
		return
	}
	p.mu.Lock()
	p.done++
	p.fn(stage, p.done, total)
	p.mu.Unlock()
}

// selectedEntries filters the catalog through cfg.ArchFilter and checks
// the requested population fits; the returned slice is the pre-trained
// half of the desired population, in catalog (= label) order.
func selectedEntries(cfg BuildConfig) ([]entry, error) {
	entries := catalog()
	if len(cfg.ArchFilter) > 0 {
		allowed := make(map[string]bool, len(cfg.ArchFilter))
		for _, a := range cfg.ArchFilter {
			allowed[a] = true
		}
		var kept []entry
		for _, e := range entries {
			if allowed[e.arch] {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	if cfg.NumPretrained > len(entries) {
		return nil, fmt.Errorf("zoo: catalog has %d matching releases, %d requested", len(entries), cfg.NumPretrained)
	}
	return entries[:cfg.NumPretrained], nil
}

// pretrainedVocabSeed derives the vocabulary seed for catalog entry e:
// releases sharing a corpus (same language/casing lineage) share
// tokenizer statistics, as real checkpoint families do.
func pretrainedVocabSeed(e entry, cfg BuildConfig) uint64 {
	return rng.Seed("corpus", e.corpus, e.language, fmt.Sprint(e.cased)) ^ cfg.Seed
}

// pretrainedShell builds the weight-free half of a release — name,
// architecture, vocabulary, execution profile — exactly as trainPretrained
// would. The store's open path uses it to materialize lazy releases
// without touching tensors.
func pretrainedShell(e entry, cfg BuildConfig) *Pretrained {
	arch := archFor(e)
	name := e.name()
	vocab := tokenizer.NewVocab(name, e.language, e.cased, arch.Vocab, pretrainedVocabSeed(e, cfg))
	arch = arch.WithLabels(arch.Vocab)
	return &Pretrained{
		Name: name, Arch: arch, ArchName: e.arch,
		Source: e.source, Language: e.language, Cased: e.cased,
		Vocab: vocab, Profile: profileFor(e),
	}
}

// trainPretrained trains catalog entry e from scratch. Every seed is
// derived from the release name and cfg.Seed, so the result is identical
// whether it is produced by a full build, a store rebuild of this single
// entry, or any worker count.
func trainPretrained(e entry, cfg BuildConfig) *Pretrained {
	p := pretrainedShell(e, cfg)
	// Generic pre-training: the MLM-analog token-recall objective
	// (task.GenerateMLM). The label space is the whole vocabulary, so
	// the backbone learns a transferable bag-of-tokens encoding —
	// data differs per release (corpus seed), so weights diverge
	// across releases.
	model := transformer.NewWithInit(p.Arch, rng.Seed("pretrain-init", p.Name)^cfg.Seed, transformer.TrainedInit)
	data := task.GenerateMLM(p.Arch.Vocab, 12, cfg.PretrainExamples, rng.Seed("pretrain-data", p.Name)^cfg.Seed)
	lr, warmup := 3e-3, 0
	if p.Arch.Layers >= 10 {
		// Deeper stacks need a gentler schedule to converge.
		lr, warmup = 1.5e-3, 120
	}
	model.Train(data, transformer.TrainConfig{
		Epochs: cfg.PretrainEpochs, BatchSize: 8,
		LR: lr, HeadLR: 6e-3, WeightDecay: 0.02, WarmupSteps: warmup,
		Seed: rng.Seed("pretrain-train", p.Name) ^ cfg.Seed,
	})
	p.handle = transformer.Resident(model)
	return p
}

// fineTunedTasks is the downstream-task rotation (GLUE analogs + QA).
func fineTunedTasks() []task.Task {
	tasks := task.GLUEAnalogs()
	return append(tasks, task.QAAnalog())
}

// fineTunedSpec maps victim index i onto its backbone, task, and name —
// the population schedule shared by the full build and the store.
func fineTunedSpec(pres []*Pretrained, tasks []task.Task, i int) (pre *Pretrained, tk task.Task, name string) {
	pre = pres[i%len(pres)]
	tk = tasks[(i/len(pres))%len(tasks)]
	return pre, tk, fmt.Sprintf("%s__ft-%s-%d", pre.Name, tk.Name, i)
}

// fineTuneData regenerates victim name's train/dev split. The split is a
// pure function of (backbone vocabulary size, name, cfg), which is why
// caches and stores do not persist it.
func fineTuneData(pre *Pretrained, tk task.Task, name string, cfg BuildConfig) (train, dev []transformer.Example) {
	data := tk.Generate(pre.Arch.Vocab, cfg.FineTuneExamples, rng.Seed("ft-data", name)^cfg.Seed)
	return task.Split(data, 0.8)
}

// trainFineTuned trains victim index i against backbone pre. Like
// trainPretrained it is deterministic per name, so single-entry store
// rebuilds reproduce the full build byte-for-byte.
func trainFineTuned(pre *Pretrained, tk task.Task, name string, cfg BuildConfig) *FineTuned {
	train, dev := fineTuneData(pre, tk, name, cfg)
	model := transformer.FineTuneFrom(pre.Model(), tk.Labels, train, transformer.TrainConfig{
		Epochs: cfg.FineTuneEpochs, BatchSize: 4,
		LR: cfg.FineTuneLR, HeadLR: cfg.FineTuneHeadLR,
		WeightDecay: cfg.FineTuneDecay,
		Seed:        rng.Seed("ft-train", name) ^ cfg.Seed,
	}, rng.Seed("ft-head", name)^cfg.Seed)
	return &FineTuned{
		Name: name, Pretrained: pre, Task: tk,
		Train: train, Dev: dev,
		handle: transformer.Resident(model),
	}
}

// Build constructs the zoo deterministically. Pre-trained models are
// initialized with a trained-looking weight distribution and briefly
// trained on a generic (non-downstream) objective; fine-tuned models copy
// a pre-trained backbone, attach a fresh task head, and train on a
// downstream task. No (pre-trained, fine-tuned) pair shares a task, as in
// the paper's methodology (§7.1).
//
// A config the catalog cannot satisfy is caller-facing input, so it is
// reported as an error instead of panicking out of a campaign.
func Build(cfg BuildConfig) (*Zoo, error) {
	return BuildContext(context.Background(), cfg)
}

// BuildContext is Build with cooperative cancellation: models are
// independent work items, so a cancelled ctx stops new models from
// starting (in-flight ones finish — one model's training is the
// cancellation granularity) and the build returns ctx's error instead of
// a partial population.
func BuildContext(ctx context.Context, cfg BuildConfig) (*Zoo, error) {
	defer cfg.Obs.StartSpan("zoo.build_seconds").End()
	if cfg.NumPretrained <= 0 || cfg.NumFineTuned <= 0 {
		return nil, fmt.Errorf("zoo: empty build configuration (%d pretrained, %d fine-tuned); use DefaultBuildConfig",
			cfg.NumPretrained, cfg.NumFineTuned)
	}
	selected, err := selectedEntries(cfg)
	if err != nil {
		return nil, err
	}
	z := &Zoo{Config: cfg}
	// The recorded config describes the population, not this build's
	// instrumentation: drop the hooks so a Zoo does not retain its
	// builder's registry or progress callback.
	z.Config.Obs, z.Config.OnProgress = nil, nil

	// Trace lane: the zoo build is one span on the pipeline track, plus
	// one track per model (pid PidZoo) whose clock advances by training
	// work units (epochs × examples) — all simulated time, so the trace
	// file is identical for any worker count.
	pipe := cfg.Obs.Tracer().Track(obs.PidPipeline, 0, "pipeline")
	buildSpan := pipe.Begin("zoo.build",
		obs.A("pretrained", cfg.NumPretrained),
		obs.A("finetuned", cfg.NumFineTuned))
	defer buildSpan.End()
	defer pipe.Advance(int64(cfg.NumPretrained*cfg.PretrainEpochs*cfg.PretrainExamples +
		cfg.NumFineTuned*cfg.FineTuneEpochs*cfg.FineTuneExamples))
	log := cfg.Obs.Log()
	log.Info("zoo build start",
		"pretrained", cfg.NumPretrained, "finetuned", cfg.NumFineTuned,
		"workers", cfg.Workers)

	// Each pre-trained release derives every seed from its own name, so
	// releases are independent items: train them on the worker pool. The
	// result slice is indexed by catalog position, which keeps the
	// population order (and therefore every downstream classifier label
	// index) identical to a serial build.
	preProg := &progressCounter{fn: cfg.OnProgress}
	pre, err := parallel.MapErrCtx(ctx, len(selected), cfg.Workers, func(ctx context.Context, i int) (*Pretrained, error) {
		e := selected[i]
		mt := cfg.Obs.Tracer().Track(obs.PidZoo, int64(i), e.name())
		sp := mt.Begin("pretrain", obs.A("arch", e.arch))
		defer func() {
			mt.Advance(int64(cfg.PretrainEpochs * cfg.PretrainExamples))
			sp.End()
		}()
		p := trainPretrained(e, cfg)
		preProg.tick("pretrain", cfg.NumPretrained)
		return p, nil
	})
	if err != nil {
		return nil, fmt.Errorf("zoo: build cancelled: %w", err)
	}
	z.Pretrained = pre

	// Fine-tuned victims only read their backbone's weights
	// (transformer.FineTuneFrom copies them into a fresh model), so they
	// too are independent once the pre-trained phase has joined.
	tasks := fineTunedTasks()
	ftProg := &progressCounter{fn: cfg.OnProgress}
	ft, err := parallel.MapErrCtx(ctx, cfg.NumFineTuned, cfg.Workers, func(ctx context.Context, i int) (*FineTuned, error) {
		pre, tk, name := fineTunedSpec(z.Pretrained, tasks, i)
		mt := cfg.Obs.Tracer().Track(obs.PidZoo, int64(cfg.NumPretrained+i), name)
		sp := mt.Begin("finetune", obs.A("task", tk.Name))
		defer func() {
			mt.Advance(int64(cfg.FineTuneEpochs * cfg.FineTuneExamples))
			sp.End()
		}()
		f := trainFineTuned(pre, tk, name, cfg)
		ftProg.tick("finetune", cfg.NumFineTuned)
		return f, nil
	})
	if err != nil {
		return nil, fmt.Errorf("zoo: build cancelled: %w", err)
	}
	z.FineTuned = ft
	cfg.Obs.Counter("zoo.models_pretrained").Add(int64(len(z.Pretrained)))
	cfg.Obs.Counter("zoo.models_finetuned").Add(int64(len(z.FineTuned)))
	log.Info("zoo build done",
		"pretrained", len(z.Pretrained), "finetuned", len(z.FineTuned))
	return z, nil
}

// MustBuild is Build for contexts where a bad config is a programmer
// error (tests, examples, benchmarks): it panics instead of returning
// the error.
func MustBuild(cfg BuildConfig) *Zoo {
	z, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return z
}

// buildIndex populates the name maps once, on first lookup.
func (z *Zoo) buildIndex() {
	z.indexOnce.Do(func() {
		z.preByName = make(map[string]*Pretrained, len(z.Pretrained))
		for _, p := range z.Pretrained {
			z.preByName[p.Name] = p
		}
		z.ftByName = make(map[string]*FineTuned, len(z.FineTuned))
		for _, f := range z.FineTuned {
			z.ftByName[f.Name] = f
		}
	})
}

// PretrainedByName returns the named pre-trained model, or nil.
func (z *Zoo) PretrainedByName(name string) *Pretrained {
	z.buildIndex()
	return z.preByName[name]
}

// FineTunedByName returns the named fine-tuned model, or nil.
func (z *Zoo) FineTunedByName(name string) *FineTuned {
	z.buildIndex()
	return z.ftByName[name]
}

// AmbiguousWith returns the pre-trained models whose execution profile is
// identical to p's (including p itself) — the candidate set the
// query-output detector has to separate.
func (z *Zoo) AmbiguousWith(p *Pretrained) []*Pretrained {
	var out []*Pretrained
	for _, q := range z.Pretrained {
		if q.Profile.Seed == p.Profile.Seed && q.ArchName == p.ArchName {
			out = append(out, q)
		}
	}
	return out
}
