// Package cliconfig is the shared command-line plumbing of the
// repository's CLIs (cmd/decepticon, cmd/zoo, cmd/experiments). The
// three commands grew the same ~15 flags and the same setup/teardown
// choreography independently — registry, run id, flight recorder,
// tracer, logging, pprof server, and a tail of deferred artifact writes
// that a log.Fatal could silently skip. This package owns that
// choreography once:
//
//   - Options + Register* declare the shared flag groups on a FlagSet,
//     with one canonical help text per flag;
//   - Setup validates the options and assembles a Runtime: the metrics
//     registry with flight recorder, optional tracer, leveled logging,
//     the pprof server, the parsed fault plan, and a context that
//     cancels on SIGINT;
//   - Runtime.Close flushes every requested artifact — metrics, trace,
//     flight dump — exactly once, whether the run finished, failed, or
//     was interrupted.
//
// Commands are expected to be shaped as main() → run() error with
// `defer rt.Close()` at the top of run, so Ctrl-C produces the same
// complete set of artifacts as a clean exit.
package cliconfig

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"decepticon/internal/fingerprint"
	"decepticon/internal/obs"
	"decepticon/internal/sidechannel"
	"decepticon/internal/zoo"
)

// Options holds the flag values shared across the CLIs. Zero value plus
// the Register* calls a command needs; fields of unregistered groups
// stay empty and are ignored by Setup.
type Options struct {
	// Common group.
	Scale    string
	Workers  int
	Metrics  string
	Pprof    string
	Trace    string
	LogLevel string
	CPUProf  string
	MemProf  string

	// Cache group.
	Cache         string
	Store         string
	ReleaseModels bool

	// Identify group.
	Hier bool

	// Faults group.
	Faults     string
	Checkpoint string
	Resume     bool
	ReadBudget int64
	Scheduled  bool

	// Flight group.
	Flight string

	// Modalities group.
	Modalities string
	Jam        string
}

// RegisterCommon declares the flags every CLI shares: -scale, -workers,
// -metrics, -pprof, -trace, -log-level, -cpuprofile, -memprofile.
func (o *Options) RegisterCommon(fs *flag.FlagSet) {
	fs.StringVar(&o.Scale, "scale", "small", "population scale: tiny | small | full")
	fs.IntVar(&o.Workers, "workers", 0, "worker goroutines for model training, trace measurement, and campaigns (0 = all cores); results are identical for any value")
	fs.StringVar(&o.Metrics, "metrics", "", "comma-separated snapshot files written on exit (.json = JSON, otherwise Prometheus text)")
	fs.StringVar(&o.Pprof, "pprof", "", "serve /metrics, /metrics.json, and /debug/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&o.Trace, "trace", "", "write a Chrome/Perfetto trace_event JSON file on exit (simulated clocks; byte-identical for any -workers)")
	fs.StringVar(&o.LogLevel, "log-level", "", "structured log level on stderr: debug | info | warn | error (default off)")
	fs.StringVar(&o.CPUProf, "cpuprofile", "", "write a CPU profile of the whole run to this file on exit (read it with go tool pprof)")
	fs.StringVar(&o.MemProf, "memprofile", "", "write a heap allocation profile of the whole run to this file on exit (go tool pprof -sample_index=alloc_space)")
}

// RegisterCache declares the zoo-materialization group: -cache, -store,
// -release-models.
func (o *Options) RegisterCache(fs *flag.FlagSet) {
	fs.StringVar(&o.Cache, "cache", "", "zoo cache file (built once, reused afterwards)")
	fs.StringVar(&o.Store, "store", "", "content-addressed zoo store directory: models load lazily on first use, and a rerun retrains only entries whose configuration changed; with -cache set, a matching monolithic cache is imported once instead of retraining")
	fs.BoolVar(&o.ReleaseModels, "release-models", false, "drop each victim's tensors (and its backbone's) after its report; with -store the campaign's peak memory tracks the victims in flight, not the population")
}

// RegisterIdentify declares -hier.
func (o *Options) RegisterIdentify(fs *flag.FlagSet) {
	fs.BoolVar(&o.Hier, "hier", false, "identify with the two-level family→release hierarchy instead of the flat classifier alone (identification cost stays sub-linear in the zoo's release count)")
}

// LoadZoo materializes the population the options ask for: from the
// content-addressed store when -store is set (with -cache, if present,
// offered as a one-time import source), else from the monolithic -cache
// file. The zoo-affecting fields of cfg (Workers, Obs, OnProgress) are
// expected to be filled by the caller.
func (o *Options) LoadZoo(ctx context.Context, cfg zoo.BuildConfig) (*zoo.Zoo, error) {
	if o.Store != "" {
		z, _, err := zoo.BuildOrOpenStore(ctx, cfg, o.Store, o.Cache)
		return z, err
	}
	return zoo.BuildOrLoadContext(ctx, cfg, o.Cache)
}

// RegisterFaults declares the fault/checkpoint group: -faults,
// -checkpoint, -resume, -read-budget.
func (o *Options) RegisterFaults(fs *flag.FlagSet) {
	fs.StringVar(&o.Faults, "faults", "", "fault-plan spec: key=value[,key=value...] with keys seed, transient, recovery, stuck, outage, period (empty = fault-free channel)")
	fs.StringVar(&o.Checkpoint, "checkpoint", "", "directory for per-victim extraction checkpoints (created if missing)")
	fs.BoolVar(&o.Resume, "resume", false, "resume from checkpoints in -checkpoint instead of starting fresh")
	fs.Int64Var(&o.ReadBudget, "read-budget", 0, "per-victim oracle read-attempt budget; an extraction exceeding it checkpoints and reports interrupted (0 = unlimited)")
	fs.BoolVar(&o.Scheduled, "scheduled", false, "information-ordered extraction scheduler: high-value bits first, adaptive vote width, posterior early exit (deterministic; never reads more than the baseline)")
}

// RegisterFlight declares -flight.
func (o *Options) RegisterFlight(fs *flag.FlagSet) {
	fs.StringVar(&o.Flight, "flight", "", "write a flight-recorder dump to this file on exit; interrupted, failed, or degraded extractions also dump here automatically (next to the checkpoint when -checkpoint is set)")
}

// RegisterModalities declares the measurement-backend group:
// -modalities, -jam.
func (o *Options) RegisterModalities(fs *flag.FlagSet) {
	fs.StringVar(&o.Modalities, "modalities", "", "comma-separated level-1 measurement channels: trace, power, counters (empty = trace only); with several, per-modality posteriors fuse into one identification")
	fs.StringVar(&o.Jam, "jam", "", "comma-separated modalities whose sensor is jammed this run; identification degrades to the surviving modalities")
}

// ModalitySets parses the -modalities and -jam flags. The jam list must
// be a subset of the requested modalities (of trace alone when
// -modalities is empty).
func (o *Options) ModalitySets() (modalities, jammed []fingerprint.Modality, err error) {
	modalities, err = fingerprint.ParseModalities(o.Modalities)
	if err != nil {
		return nil, nil, err
	}
	jammed, err = fingerprint.ParseModalities(o.Jam)
	if err != nil {
		return nil, nil, err
	}
	requested := map[fingerprint.Modality]bool{}
	if len(modalities) == 0 {
		requested[fingerprint.ModalityTrace] = true
	}
	for _, m := range modalities {
		requested[m] = true
	}
	for _, j := range jammed {
		if !requested[j] {
			return nil, nil, fmt.Errorf("cliconfig: -jam %s is not among the requested modalities", j)
		}
	}
	return modalities, jammed, nil
}

// ZooConfig maps the -scale flag to a zoo build configuration.
func (o *Options) ZooConfig() (zoo.BuildConfig, error) {
	switch o.Scale {
	case "tiny":
		return zoo.TinyBuildConfig(), nil
	case "small":
		return zoo.SmallBuildConfig(), nil
	case "full":
		return zoo.DefaultBuildConfig(), nil
	}
	return zoo.BuildConfig{}, fmt.Errorf("unknown -scale %q (use tiny, small, or full)", o.Scale)
}

// Runtime is the assembled run environment of one CLI invocation.
type Runtime struct {
	// Ctx cancels on the first SIGINT (Ctrl-C); a second SIGINT kills
	// the process the normal way. Thread it into every long phase.
	Ctx context.Context
	// Registry is the metrics registry, with the flight recorder (and
	// tracer, when -trace is set) already attached.
	Registry *obs.Registry
	// Flight is the attached flight recorder, tagged with RunID.
	Flight *obs.FlightRecorder
	// RunID is the stable identifier derived from the command line.
	RunID string
	// Plan is the parsed -faults plan (nil for a fault-free channel).
	Plan *sidechannel.FaultPlan

	opts          *Options
	tracer        *obs.Tracer
	cpuProf       *os.File
	memProf       *os.File
	stopSignals   context.CancelFunc
	pprofShutdown func(context.Context) error
	closeOnce     sync.Once
}

// Setup validates opts and assembles the Runtime. Call it once, right
// after flag parsing; pair it with a deferred Close.
//
// The runtime's context always cancels on SIGINT; extraSignals adds
// further triggers (a daemon passes syscall.SIGTERM so an orchestrator's
// stop request drains it exactly like Ctrl-C does a CLI).
func Setup(opts *Options, extraSignals ...os.Signal) (*Runtime, error) {
	plan, err := sidechannel.ParseFaultPlan(opts.Faults)
	if err != nil {
		return nil, fmt.Errorf("-faults: %w", err)
	}
	if opts.Resume && opts.Checkpoint == "" {
		return nil, fmt.Errorf("-resume requires -checkpoint")
	}

	reg := obs.New()
	runID := obs.RunID(os.Args...)
	rec := obs.NewFlightRecorder(0)
	rec.RunID = runID
	reg.SetFlight(rec)

	rt := &Runtime{
		Registry: reg,
		Flight:   rec,
		RunID:    runID,
		Plan:     plan,
		opts:     opts,
	}
	if opts.Trace != "" {
		rt.tracer = obs.NewTracer()
		reg.SetTracer(rt.tracer)
	}
	if lvl, enabled, err := obs.ParseLogLevel(opts.LogLevel); err != nil {
		return nil, fmt.Errorf("-log-level: %w", err)
	} else if enabled {
		reg.SetLogger(obs.NewLogger(os.Stderr, lvl, runID))
	}
	if opts.CPUProf != "" {
		f, err := os.Create(opts.CPUProf)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		rt.cpuProf = f
	}
	if opts.MemProf != "" {
		// Created up front so a bad path fails before the run, not
		// after it; Close writes the profile.
		f, err := os.Create(opts.MemProf)
		if err != nil {
			rt.stopProfiles()
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
		rt.memProf = f
	}
	if opts.Pprof != "" {
		addr, shutdown, err := obs.Serve(opts.Pprof, reg)
		if err != nil {
			rt.stopProfiles()
			return nil, fmt.Errorf("pprof server: %w", err)
		}
		rt.pprofShutdown = shutdown
		log.Printf("serving metrics and pprof on http://%s", addr)
	}
	rt.Ctx, rt.stopSignals = signal.NotifyContext(context.Background(),
		append([]os.Signal{os.Interrupt}, extraSignals...)...)
	return rt, nil
}

// Interrupted reports whether the runtime's context has been cancelled
// (the user hit Ctrl-C).
func (rt *Runtime) Interrupted() bool { return rt.Ctx.Err() != nil }

// Close flushes every requested artifact — flight dump, trace file,
// metrics snapshots — restores default SIGINT behavior, and shuts the
// pprof server down. Idempotent and safe to call concurrently (a daemon
// reaches it from both the signal path and the serve loop; sync.Once
// makes the second caller wait for the first flush to finish instead of
// racing a half-written artifact). It must run on every exit path (use
// main() → run() error with a deferred Close rather than log.Fatal
// mid-run, which skips defers): an interrupted run's artifacts are
// exactly the point of the flight recorder.
func (rt *Runtime) Close() { rt.closeOnce.Do(rt.close) }

// stopProfiles closes the profile files of a Setup that failed.
func (rt *Runtime) stopProfiles() {
	if rt.cpuProf != nil {
		pprof.StopCPUProfile()
		rt.cpuProf.Close()
	}
	if rt.memProf != nil {
		rt.memProf.Close()
	}
}

func (rt *Runtime) close() {
	// Read before stopSignals, which cancels the context itself.
	interrupted := rt.Interrupted()
	rt.stopSignals()
	if rt.cpuProf != nil {
		pprof.StopCPUProfile()
		if err := rt.cpuProf.Close(); err != nil {
			log.Printf("cpuprofile: %v", err)
		} else {
			log.Printf("cpu profile written to %s", rt.opts.CPUProf)
		}
	}
	if rt.memProf != nil {
		if err := writeMemProfile(rt.memProf); err != nil {
			log.Printf("memprofile: %v", err)
		} else {
			log.Printf("memory profile written to %s", rt.opts.MemProf)
		}
	}
	if rt.opts.Flight != "" {
		if interrupted {
			// A signal that lands between extractions leaves no
			// extraction-level interrupt note; record it for the run so
			// the dump always says why the run stopped.
			rt.Flight.Note("interrupt", "signal", nil)
		}
		if err := rt.Flight.Dump(rt.opts.Flight, "run exit"); err != nil {
			log.Printf("flight: %v", err)
		} else {
			log.Printf("flight recorder written to %s", rt.opts.Flight)
		}
	}
	if rt.tracer != nil {
		if err := rt.tracer.WriteFile(rt.opts.Trace); err != nil {
			log.Printf("trace: %v", err)
		} else {
			log.Printf("trace written to %s", rt.opts.Trace)
		}
	}
	for _, path := range strings.Split(rt.opts.Metrics, ",") {
		if path = strings.TrimSpace(path); path == "" {
			continue
		}
		if err := rt.Registry.Snapshot().WriteFile(path); err != nil {
			log.Printf("metrics: %v", err)
		} else {
			log.Printf("metrics written to %s", path)
		}
	}
	if rt.pprofShutdown != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := rt.pprofShutdown(ctx); err != nil {
			log.Printf("pprof shutdown: %v", err)
		}
	}
}

// writeMemProfile writes the allocation profile — every sampled
// allocation since start-up (alloc_space/alloc_objects) and the live
// heap (inuse_space) — to f and closes it. A GC first brings the live
// heap figures up to date.
func writeMemProfile(f *os.File) error {
	runtime.GC()
	err := pprof.Lookup("allocs").WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
