// Command zoo builds the model population and prints its catalog: every
// pre-trained release (source, framework, architecture, language, casing)
// and every fine-tuned victim with its task and dev accuracy.
//
// Usage:
//
//	zoo                # reduced population
//	zoo -scale full    # the paper's 70 + 170 models
//
// Ctrl-C cancels the build at the next model boundary; requested
// -metrics and -trace artifacts are still written.
package main

import (
	"flag"
	"fmt"
	"log"

	"decepticon/internal/cliconfig"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("zoo: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var opts cliconfig.Options
	opts.RegisterCommon(flag.CommandLine)
	opts.RegisterStore(flag.CommandLine)
	flag.Parse()

	cfg, err := opts.ZooConfig()
	if err != nil {
		return err
	}
	rt, err := cliconfig.Setup(&opts)
	if err != nil {
		return err
	}
	defer rt.Close()

	cfg.Workers = opts.Workers
	cfg.Obs = rt.Registry
	cfg.OnProgress = func(stage string, done, total int) {
		if done%20 == 0 || done == total {
			log.Printf("%s %d/%d", stage, done, total)
		}
	}
	z, err := opts.LoadZoo(rt.Ctx, cfg)
	if err != nil {
		if z == nil {
			return err
		}
		log.Printf("zoo store: %v", err)
	}

	fmt.Printf("pre-trained releases (%d):\n", len(z.Pretrained))
	fmt.Printf("%-45s %-12s %-12s %-7s %-5s %-6s\n",
		"name", "source", "framework", "arch", "lang", "cased")
	for _, p := range z.Pretrained {
		fmt.Printf("%-45s %-12s %-12s %-7s %-5s %-6v\n",
			p.Name, p.Source, p.Profile.Framework, p.ArchName, p.Language, p.Cased)
	}

	fmt.Printf("\nfine-tuned victims (%d):\n", len(z.FineTuned))
	fmt.Printf("%-60s %-8s %-8s\n", "name", "task", "dev acc")
	for _, f := range z.FineTuned {
		fmt.Printf("%-60s %-8s %-8.3f\n", f.Name, f.Task.Name, f.Model().Evaluate(f.Dev))
		// One victim's tensors in memory at a time when the zoo is
		// store-backed; a no-op for resident populations.
		f.Release()
	}
	return nil
}
