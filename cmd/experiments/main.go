// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig14
//	experiments -run fig3,fig4,fig16 -scale full
//	experiments -run all
//
// Ctrl-C cancels the run at the next phase boundary (zoo build,
// classifier epoch, or extraction checkpoint); requested -metrics,
// -trace, and -flight artifacts are still written.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"decepticon"
	"decepticon/internal/cliconfig"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() (err error) {
	var opts cliconfig.Options
	opts.RegisterCommon(flag.CommandLine)
	opts.RegisterStore(flag.CommandLine)
	opts.RegisterFaults(flag.CommandLine)
	opts.RegisterFlight(flag.CommandLine)
	var (
		runIDs = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		list   = flag.Bool("list", false, "list experiments and exit")
		quiet  = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	if *list {
		for _, t := range decepticon.ExperimentTitles() {
			fmt.Println(t)
		}
		return nil
	}

	var sc decepticon.Scale
	switch opts.Scale {
	case "small":
		sc = decepticon.ScaleSmall
	case "full":
		sc = decepticon.ScaleFull
	default:
		return fmt.Errorf("unknown scale %q (small | full)", opts.Scale)
	}

	rt, err := cliconfig.Setup(&opts)
	if err != nil {
		return err
	}
	defer rt.Close()

	env := decepticon.NewExperiments(sc)
	env.Ctx = rt.Ctx
	env.StorePath = opts.Store
	env.Workers = opts.Workers
	env.Obs = rt.Registry
	env.FaultPlan = rt.Plan
	env.CheckpointDir = opts.Checkpoint
	env.Resume = opts.Resume
	env.FlightPath = opts.Flight
	if !*quiet {
		env.Progress = func(format string, args ...any) { log.Printf(format, args...) }
	}

	// The environment's lazy accessors (Zoo, Attack) treat failures of the
	// package's own presets as programmer errors and panic — including the
	// cancellation a Ctrl-C injects mid-build. Recover that one case into
	// a clean exit; genuine programmer errors keep panicking.
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, context.Canceled) {
				log.Printf("interrupted")
				err = nil
				return
			}
			panic(r)
		}
	}()

	if *runIDs == "all" {
		env.RunAll(os.Stdout)
		return nil
	}
	for _, id := range strings.Split(*runIDs, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if err := env.Run(id, os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
