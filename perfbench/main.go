// Command perfbench is the repository's end-to-end benchmark. It drives
// one named workload through the public functions of the zoo, core
// (whose PrepareContext trains the fingerprint classifiers) and service
// layers, checks the program's outputs, and prints one JSON result as
// the last line of standard output.
//
// Build and run it through run.sh from the root of a checkout:
//
//	bash perfbench/run.sh --workload cold-small --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// no metrics registry attached to the program. With --trace 1 the
// command runs the workload twice in one process — untraced, then with a
// registry attached and wall-clock spans recorded around every call into
// a layer — and the result holds the per-layer metrics, including the
// tracing overhead and a check that both runs produced identical
// deterministic outputs. README.md names each workload and metric and
// why it was chosen.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"decepticon/internal/obs"
)

// runLimit bounds one invocation; a run that overshoots fails instead of
// outliving the caller's time limit.
const runLimit = 170 * time.Second

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "workload seed; derives measure seeds, the fault plan, victim picks and arrival times")
		seconds = flag.Int("seconds", 20, "length of the measured attack phase in seconds")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer run")
		work    = flag.String("work", ".work", "directory for the zoo store, service state and span files")
	)
	flag.Parse()
	w, ok := workloads[*name]
	switch {
	case !ok:
		return fmt.Errorf("unknown -workload %q (use %s)", *name, workloadNames())
	case *seconds < 1:
		return fmt.Errorf("-seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	fmt.Printf("env workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d go=%s\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	cfg := runConfig{seed: *seed, seconds: *seconds, work: *work}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}

	var res result
	if *trace == 0 {
		o, err := w(ctx, cfg)
		if err != nil {
			return err
		}
		res = endToEnd(o)
		res.printTable(os.Stdout, o)
	} else {
		cfg.fixed = true
		ref, err := w(ctx, cfg)
		if err != nil {
			return fmt.Errorf("untraced reference run: %w", err)
		}
		cfg.spans = newSpanLog()
		cfg.cpu = startCPUClock()
		o, err := w(ctx, cfg)
		cfg.cpu.stop()
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		crossCheck(ref, o)
		res = perLayer(ref, o, cfg.spans)
		res.printTable(os.Stdout, o)
		path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := cfg.spans.writeFile(path); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type runConfig struct {
	seed    uint64
	seconds int
	work    string
	// fixed limits a batch workload to its exactPasses, so that the two
	// runs of a traced invocation do the same work.
	fixed bool
	spans *spanLog  // nil: untraced
	cpu   *cpuClock // nil: untraced
}

func (c runConfig) traced() bool { return c.spans != nil }

// registry returns a fresh metrics registry for a traced run and nil,
// which leaves the program's instrumentation off, for an untraced one.
func (c runConfig) registry() *obs.Registry {
	if c.traced() {
		return obs.New()
	}
	return nil
}

func (c runConfig) storeDir() string { return filepath.Join(c.work, "store-small") }

var workloads = map[string]func(context.Context, runConfig) (*outcome, error){
	"cold-small":       runColdSmall,
	"campaign-faulted": runCampaignFaulted,
	"service-open":     runServiceOpen,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
