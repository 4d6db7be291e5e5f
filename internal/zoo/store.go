package zoo

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"decepticon/internal/fsatomic"
	"decepticon/internal/parallel"
	"decepticon/internal/task"
	"decepticon/internal/transformer"
)

// The content-addressed zoo store: one object file per model plus a
// manifest, replacing the monolithic cache for populations too large to
// rebuild (or even hold) wholesale.
//
// Layout:
//
//	dir/manifest.json          — version, build config, one entry per model
//	dir/objects/<name>--<key8>.gz — gzipped transformer gob (the tensors)
//
// Each manifest entry carries the model's config key — a SHA-256 over
// every input that determines its weights (catalog fields, training
// knobs, the zoo seed; for fine-tuned models the backbone's key, so a
// backbone change cascades to its victims) — and the SHA-256 of the
// object file's bytes. Opening a store recomputes the desired population
// from the live catalog + config, reuses every entry whose key matches
// and whose object verifies, and retrains only the rest: a catalog tweak
// or count bump no longer rebuilds 240 models. Population counts are
// deliberately absent from entry keys, which is what makes growth
// incremental.
//
// Reused models come back as lazy handles (tensors load on first use and
// can be Released), so a campaign over a 10× store keeps only its working
// set in memory. Retrained models are resident, and their objects are
// written before the manifest — both via fsatomic, so a crash at any
// instant leaves a store that simply retrains a little more next open.
//
// Determinism contract: trainPretrained/trainFineTuned derive every seed
// from the model name and cfg.Seed, so a single-entry retrain is
// byte-identical to the same model from a full build — store-grown and
// freshly-built populations are indistinguishable (pinned by test).

// storeVersion guards the manifest schema.
const storeVersion = 1

type manifestEntry struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"` // "pretrained" | "finetuned"
	Key    string `json:"key"`  // hex SHA-256 of the config inputs
	Object string `json:"object"`
	SHA256 string `json:"sha256"` // hex SHA-256 of the object file bytes
}

type manifest struct {
	Version int `json:"version"`
	// Config records the build that last wrote the store — provenance
	// only; reuse decisions run entirely on per-entry keys.
	Config  cacheConfig     `json:"config"`
	Entries []manifestEntry `json:"entries"`
}

// StoreStats reports what BuildOrOpenStore did: how much of the desired
// population was reused from disk, imported from a legacy cache, or
// retrained. Reused+Imported+PretrainedTrained+FineTunedTrained equals
// the population size.
type StoreStats struct {
	PretrainedTrained int
	FineTunedTrained  int
	Reused            int
	Imported          int
}

// Trained is the total number of models trained this open.
func (s StoreStats) Trained() int { return s.PretrainedTrained + s.FineTunedTrained }

// pretrainedKey hashes every input that determines a release's weights.
// Population counts are excluded on purpose: growing the zoo must not
// invalidate existing entries.
func pretrainedKey(e entry, cfg BuildConfig) string {
	h := sha256.New()
	fmt.Fprintf(h, "pretrained/v1\nmodel=%s\nsource=%s\narch=%s\nlanguage=%s\ncased=%t\ndecoder=%t\nprofile=%s\ncorpus=%s\n",
		e.model, e.source, e.arch, e.language, e.cased, e.decoder, e.profileKey, e.corpus)
	fmt.Fprintf(h, "examples=%d\nepochs=%d\nseed=%d\n",
		cfg.PretrainExamples, cfg.PretrainEpochs, cfg.Seed)
	return hex.EncodeToString(h.Sum(nil))
}

// fineTunedKey hashes a victim's inputs, including its backbone's key so
// backbone changes cascade.
func fineTunedKey(backboneKey, name, taskName string, i int, cfg BuildConfig) string {
	h := sha256.New()
	fmt.Fprintf(h, "finetuned/v1\nbackbone=%s\nindex=%d\nname=%s\ntask=%s\n",
		backboneKey, i, name, taskName)
	fmt.Fprintf(h, "examples=%d\nepochs=%d\nlr=%g\nheadlr=%g\ndecay=%g\nseed=%d\n",
		cfg.FineTuneExamples, cfg.FineTuneEpochs,
		cfg.FineTuneLR, cfg.FineTuneHeadLR, cfg.FineTuneDecay, cfg.Seed)
	return hex.EncodeToString(h.Sum(nil))
}

// objectName is the store file name for a model: the name sanitized for
// the filesystem plus a key prefix, so a key change writes a new file
// (content addressing) and a human can still tell which model is which.
func objectName(name, key string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == '-' || r == '_' || r == '.':
			return r
		default:
			return '_'
		}
	}, name)
	return safe + "--" + key[:8] + ".gz"
}

// encodeObject gzips a model's gob bytes. Go's gzip writer emits no
// timestamp, so object bytes are deterministic.
func encodeObject(m *transformer.Model) ([]byte, error) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if err := m.Save(gz); err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeObject(data []byte) (*transformer.Model, error) {
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer gz.Close()
	return transformer.Load(gz)
}

func hashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// readManifest loads dir's manifest; a missing file returns an empty
// manifest (a fresh store), any other failure is an error the caller
// downgrades to a warning + full build.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if os.IsNotExist(err) {
		return &manifest{Version: storeVersion}, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("zoo: store manifest: %w", err)
	}
	if m.Version != storeVersion {
		return nil, fmt.Errorf("zoo: store manifest version %d, want %d", m.Version, storeVersion)
	}
	return &m, nil
}

func writeManifest(dir string, m *manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return fsatomic.WriteFile(filepath.Join(dir, "manifest.json"), append(data, '\n'))
}

// verifyObject reads and hash-checks an object file. It returns the raw
// bytes so a hit costs one read.
func verifyObject(dir string, me manifestEntry) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, "objects", me.Object))
	if err != nil {
		return nil, err
	}
	if got := hashBytes(data); got != me.SHA256 {
		return nil, fmt.Errorf("object %s: sha256 %s, manifest says %s", me.Object, got[:8], me.SHA256[:8])
	}
	return data, nil
}

// lazyHandle returns a handle that loads (and hash-checks) the object on
// first use. Open-time verification already proved the file good; the
// per-load check catches the store being mutated underneath a running
// campaign.
func lazyHandle(dir string, me manifestEntry) *transformer.Handle {
	return transformer.Lazy(func() (*transformer.Model, error) {
		data, err := verifyObject(dir, me)
		if err != nil {
			return nil, fmt.Errorf("zoo store %s: %w", me.Name, err)
		}
		return decodeObject(data)
	})
}

// desiredEntry is one model the live catalog + config says the population
// must contain, in population order.
type desiredEntry struct {
	name string
	kind string
	key  string
	// pretrained
	cat entry
	// finetuned
	preIdx   int
	taskName string
	ftIndex  int
}

// BuildOrOpenStore opens (and, where needed, incrementally builds) the
// content-addressed store at dir, returning the population plus stats on
// how much work the open did. A fully warm store trains nothing and
// returns an all-lazy population; a fresh directory trains everything; a
// store whose catalog/config inputs partially changed retrains exactly
// the entries whose keys moved. Corrupt or missing objects are logged
// and retrained, never trusted.
//
// legacyCache, when non-empty and the store has no manifest yet, names a
// monolithic cache file to import: models whose recorded config matches
// cfg are re-encoded as store objects instead of retrained (the
// migration path off the old format).
func BuildOrOpenStore(ctx context.Context, cfg BuildConfig, dir, legacyCache string) (*Zoo, *StoreStats, error) {
	defer cfg.Obs.StartSpan("zoo.store_open_seconds").End()
	if cfg.NumPretrained <= 0 || cfg.NumFineTuned <= 0 {
		return nil, nil, fmt.Errorf("zoo: empty build configuration (%d pretrained, %d fine-tuned); use DefaultBuildConfig",
			cfg.NumPretrained, cfg.NumFineTuned)
	}
	log := cfg.Obs.Log()
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, nil, fmt.Errorf("zoo: store %s: %w", dir, err)
	}
	man, err := readManifest(dir)
	if err != nil {
		log.Warn("zoo store manifest unreadable; rebuilding all entries", "dir", dir, "err", err)
		man = &manifest{Version: storeVersion}
	}
	byKey := make(map[string]manifestEntry, len(man.Entries))
	for _, me := range man.Entries {
		byKey[me.Key] = me
	}

	// A fresh store may import a compatible monolithic cache instead of
	// retraining: same config ⇒ identical weights (the determinism
	// contract), so re-encoding the cache's models as objects is safe.
	var imported map[string]*transformer.Model
	if legacyCache != "" && len(man.Entries) == 0 {
		if legacy, _, err := loadFileVersion(legacyCache); err == nil &&
			configKey(legacy.Config).equal(configKey(cfg)) {
			imported = make(map[string]*transformer.Model, len(legacy.Pretrained)+len(legacy.FineTuned))
			for _, p := range legacy.Pretrained {
				imported[p.Name] = p.Model()
			}
			for _, f := range legacy.FineTuned {
				imported[f.Name] = f.Model()
			}
			log.Info("importing monolithic zoo cache into store",
				"cache", legacyCache, "dir", dir, "models", len(imported))
		} else if err != nil && !os.IsNotExist(err) {
			log.Warn("legacy zoo cache unreadable; building store from scratch",
				"cache", legacyCache, "err", err)
		}
	}

	// Desired population, in order: pre-trained (catalog order), then
	// fine-tuned (index order). Fine-tuned keys need backbone keys, so
	// compute the pre-trained half first.
	selected, err := selectedEntries(cfg)
	if err != nil {
		return nil, nil, err
	}
	shells := make([]*Pretrained, len(selected))
	preKeys := make([]string, len(selected))
	desired := make([]desiredEntry, 0, cfg.NumPretrained+cfg.NumFineTuned)
	for i, e := range selected {
		shells[i] = pretrainedShell(e, cfg)
		preKeys[i] = pretrainedKey(e, cfg)
		desired = append(desired, desiredEntry{
			name: shells[i].Name, kind: "pretrained", key: preKeys[i], cat: e, preIdx: i,
		})
	}
	tasks := fineTunedTasks()
	for i := 0; i < cfg.NumFineTuned; i++ {
		_, tk, name := fineTunedSpec(shells, tasks, i)
		preIdx := i % len(shells)
		desired = append(desired, desiredEntry{
			name: name, kind: "finetuned",
			key:    fineTunedKey(preKeys[preIdx], name, tk.Name, i, cfg),
			preIdx: preIdx, taskName: tk.Name, ftIndex: i,
		})
	}

	// Partition into reuse (key matches + object verifies), import, and
	// retrain. Verification reads every reused object once at open — the
	// price of never serving a corrupt store silently.
	stats := &StoreStats{}
	newEntries := make([]manifestEntry, len(desired))
	needTrain := make([]bool, len(desired))
	for i, d := range desired {
		if me, ok := byKey[d.key]; ok {
			if _, err := verifyObject(dir, me); err == nil {
				newEntries[i] = me
				stats.Reused++
				continue
			} else {
				log.Warn("zoo store object corrupt or missing; retraining entry",
					"name", d.name, "object", me.Object, "err", err)
			}
		}
		if m, ok := imported[d.name]; ok {
			data, err := encodeObject(m)
			if err != nil {
				return nil, nil, fmt.Errorf("zoo: store import %s: %w", d.name, err)
			}
			me := manifestEntry{Name: d.name, Kind: d.kind, Key: d.key,
				Object: objectName(d.name, d.key), SHA256: hashBytes(data)}
			if err := fsatomic.WriteFile(filepath.Join(dir, "objects", me.Object), data); err != nil {
				return nil, nil, fmt.Errorf("zoo: store import %s: %w", d.name, err)
			}
			newEntries[i] = me
			stats.Imported++
			continue
		}
		needTrain[i] = true
	}

	z := &Zoo{Config: cfg}
	z.Config.Obs, z.Config.OnProgress = nil, nil
	z.Pretrained = shells

	// Train the missing pre-trained releases on the worker pool, write
	// their objects, and give every release its handle: resident when
	// just trained, lazy otherwise.
	prog := &progressCounter{fn: cfg.OnProgress}
	toTrain := 0
	for _, need := range needTrain {
		if need {
			toTrain++
		}
	}
	log.Info("zoo store open", "dir", dir,
		"reused", stats.Reused, "imported", stats.Imported, "retrain", toTrain)

	preTrained, err := parallel.MapErrCtx(ctx, cfg.NumPretrained, cfg.Workers, func(ctx context.Context, i int) (*Pretrained, error) {
		if !needTrain[i] {
			return nil, nil
		}
		p := trainPretrained(desired[i].cat, cfg)
		prog.tick("pretrain", toTrain)
		return p, nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("zoo: store build cancelled: %w", err)
	}
	for i, p := range preTrained {
		d := desired[i]
		if p == nil {
			shells[i].handle = lazyHandle(dir, newEntries[i])
			continue
		}
		data, err := encodeObject(p.Model())
		if err != nil {
			return nil, nil, fmt.Errorf("zoo: store write %s: %w", d.name, err)
		}
		me := manifestEntry{Name: d.name, Kind: d.kind, Key: d.key,
			Object: objectName(d.name, d.key), SHA256: hashBytes(data)}
		if err := fsatomic.WriteFile(filepath.Join(dir, "objects", me.Object), data); err != nil {
			return nil, nil, fmt.Errorf("zoo: store write %s: %w", d.name, err)
		}
		newEntries[i] = me
		// Keep the shell (already in z.Pretrained) and hand it the
		// freshly trained tensors.
		shells[i].handle = p.handle
		stats.PretrainedTrained++
	}

	// Fine-tuned victims: same scheme. Training one loads its backbone
	// through the lazy handle if needed.
	ftTrained, err := parallel.MapErrCtx(ctx, cfg.NumFineTuned, cfg.Workers, func(ctx context.Context, i int) (*FineTuned, error) {
		di := cfg.NumPretrained + i
		if !needTrain[di] {
			return nil, nil
		}
		d := desired[di]
		tk, ok := taskByName(tasks, d.taskName)
		if !ok {
			return nil, fmt.Errorf("zoo: store: unknown task %q", d.taskName)
		}
		f := trainFineTuned(shells[d.preIdx], tk, d.name, cfg)
		prog.tick("finetune", toTrain)
		return f, nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("zoo: store build cancelled: %w", err)
	}
	z.FineTuned = make([]*FineTuned, cfg.NumFineTuned)
	for i := 0; i < cfg.NumFineTuned; i++ {
		di := cfg.NumPretrained + i
		d := desired[di]
		if f := ftTrained[i]; f != nil {
			data, err := encodeObject(f.Model())
			if err != nil {
				return nil, nil, fmt.Errorf("zoo: store write %s: %w", d.name, err)
			}
			me := manifestEntry{Name: d.name, Kind: d.kind, Key: d.key,
				Object: objectName(d.name, d.key), SHA256: hashBytes(data)}
			if err := fsatomic.WriteFile(filepath.Join(dir, "objects", me.Object), data); err != nil {
				return nil, nil, fmt.Errorf("zoo: store write %s: %w", d.name, err)
			}
			newEntries[di] = me
			z.FineTuned[i] = f
			stats.FineTunedTrained++
			continue
		}
		tk, ok := taskByName(tasks, d.taskName)
		if !ok {
			return nil, nil, fmt.Errorf("zoo: store: unknown task %q", d.taskName)
		}
		pre := shells[d.preIdx]
		train, dev := fineTuneData(pre, tk, d.name, cfg)
		z.FineTuned[i] = &FineTuned{
			Name: d.name, Pretrained: pre, Task: tk,
			Train: train, Dev: dev,
			handle: lazyHandle(dir, newEntries[di]),
		}
	}

	// Manifest last: a crash before this line leaves the old manifest
	// (next open retrains what this one did), never a store that claims
	// objects it does not have.
	man = &manifest{Version: storeVersion, Config: configKey(cfg), Entries: newEntries}
	if err := writeManifest(dir, man); err != nil {
		return z, stats, fmt.Errorf("zoo: store manifest write: %w", err)
	}
	gcObjects(dir, newEntries, log)

	cfg.Obs.Counter("zoo.models_pretrained").Add(int64(stats.PretrainedTrained))
	cfg.Obs.Counter("zoo.models_finetuned").Add(int64(stats.FineTunedTrained))
	cfg.Obs.Counter("zoo.models_reused").Add(int64(stats.Reused))
	cfg.Obs.Counter("zoo.models_imported").Add(int64(stats.Imported))
	log.Info("zoo store ready", "dir", dir,
		"pretrained_trained", stats.PretrainedTrained,
		"finetuned_trained", stats.FineTunedTrained,
		"reused", stats.Reused, "imported", stats.Imported)
	return z, stats, nil
}

func taskByName(tasks []task.Task, name string) (task.Task, bool) {
	for _, tk := range tasks {
		if tk.Name == name {
			return tk, true
		}
	}
	return task.Task{}, false
}

// gcObjects removes object files the manifest no longer references
// (superseded keys, shrunk populations). Best-effort: a leftover file is
// wasted disk, not corruption.
func gcObjects(dir string, entries []manifestEntry, log *slog.Logger) {
	live := make(map[string]bool, len(entries))
	for _, me := range entries {
		live[me.Object] = true
	}
	objDir := filepath.Join(dir, "objects")
	des, err := os.ReadDir(objDir)
	if err != nil {
		return
	}
	for _, de := range des {
		if de.IsDir() || live[de.Name()] {
			continue
		}
		if err := os.Remove(filepath.Join(objDir, de.Name())); err == nil {
			log.Info("zoo store gc", "object", de.Name())
		}
	}
}
