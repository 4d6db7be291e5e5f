// Command decepticond runs the Decepticon attack as a long-running
// campaign service: the zoo and level-1 extractor are prepared once at
// startup, then campaigns arrive over HTTP/JSON, queue durably under
// -dir, execute on a bounded runner pool, and stream per-victim results
// as NDJSON. Kill the daemon mid-campaign and restart it on the same
// -dir: every in-flight extraction resumes from its checkpoint with zero
// re-paid hammer rounds and the final results are byte-identical to an
// uninterrupted run.
//
//	decepticond -scale tiny -dir /var/lib/decepticon -addr localhost:8424 \
//	    -tenants 'alice:500000:2,bob:100000:1'
//
// SIGINT or SIGTERM drains gracefully: admission stops (503), running
// campaigns checkpoint, statuses persist, artifacts flush.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"decepticon"
	"decepticon/internal/cliconfig"
	"decepticon/internal/fsatomic"
	"decepticon/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("decepticond: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// parseTenants parses -tenants: comma-separated name:budget[:priority]
// entries ("alice:500000:2,bob:100000"). Budget 0 is unlimited.
func parseTenants(spec string) (map[string]service.TenantConfig, error) {
	out := map[string]service.TenantConfig{}
	if strings.TrimSpace(spec) == "" {
		return out, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 2 || len(parts) > 3 || parts[0] == "" {
			return nil, fmt.Errorf("bad tenant entry %q (want name:budget[:priority])", entry)
		}
		budget, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil || budget < 0 {
			return nil, fmt.Errorf("bad tenant budget in %q", entry)
		}
		tc := service.TenantConfig{ReadBudget: budget}
		if len(parts) == 3 {
			tc.Priority, err = strconv.Atoi(parts[2])
			if err != nil {
				return nil, fmt.Errorf("bad tenant priority in %q", entry)
			}
		}
		out[parts[0]] = tc
	}
	return out, nil
}

func run() error {
	fs := flag.CommandLine
	var opts cliconfig.Options
	opts.RegisterCommon(fs)
	opts.RegisterStore(fs)
	opts.RegisterIdentify(fs)
	addr := fs.String("addr", "localhost:8424", "campaign API listen address (use :0 for an ephemeral port; the bound address lands in <dir>/decepticond.addr)")
	dir := fs.String("dir", "", "durable state directory: campaign specs, statuses, checkpoints, results (required)")
	queueLimit := fs.Int("queue-limit", 16, "max campaigns waiting for a runner; submissions beyond it get 429 + Retry-After")
	runners := fs.Int("runners", 1, "campaigns executed concurrently")
	victimWorkers := fs.Int("victim-workers", 1, "per-campaign victim concurrency when the spec does not choose")
	tenants := fs.String("tenants", "", "per-tenant allowances: name:budget[:priority],... (budget = total oracle attempts, 0 = unlimited; higher priority runs first)")
	defaultBudget := fs.Int64("default-budget", 0, "oracle-attempt budget for tenants not in -tenants (0 = unlimited)")
	defaultPriority := fs.Int("default-priority", 0, "priority for tenants not in -tenants")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint attached to 429 responses")
	drainTimeout := fs.Duration("drain-timeout", 60*time.Second, "max time to wait for running campaigns to checkpoint on shutdown")
	flag.Parse()
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	tenantCfg, err := parseTenants(*tenants)
	if err != nil {
		return fmt.Errorf("-tenants: %w", err)
	}
	zooCfg, err := opts.ZooConfig()
	if err != nil {
		return err
	}

	// SIGTERM must drain exactly like Ctrl-C: orchestrators stop daemons
	// with TERM, and the artifact flush in rt.Close rides this context.
	rt, err := cliconfig.Setup(&opts, syscall.SIGTERM)
	if err != nil {
		return err
	}
	defer rt.Close()

	zooCfg.Workers = opts.Workers
	zooCfg.Obs = rt.Registry
	log.Printf("building model zoo (%d pre-trained, %d fine-tuned)...",
		zooCfg.NumPretrained, zooCfg.NumFineTuned)
	// With -store, a restart opens the store and serves lazy handles
	// instead of rebuilding the population — the daemon's recovery path
	// costs a manifest read, not a training run.
	z, err := opts.LoadZoo(rt.Ctx, zooCfg)
	if err != nil {
		return err
	}

	log.Printf("training the pre-trained model extractor...")
	prepCfg := decepticon.DefaultPrepareConfig()
	if opts.Scale == "tiny" {
		prepCfg.SamplesPerModel = 2
		prepCfg.ImgSize = 32
		prepCfg.Epochs = 8
	}
	prepCfg.Workers = opts.Workers
	prepCfg.Obs = rt.Registry
	prepCfg.Hierarchical = opts.Hier
	atk, err := decepticon.NewAttackContext(rt.Ctx, z, prepCfg)
	if err != nil {
		return err
	}

	srv, err := service.New(service.Config{
		Dir:           *dir,
		Attack:        atk,
		Obs:           rt.Registry,
		QueueLimit:    *queueLimit,
		Runners:       *runners,
		VictimWorkers: *victimWorkers,
		Tenants:       tenantCfg,
		DefaultTenant: service.TenantConfig{ReadBudget: *defaultBudget, Priority: *defaultPriority},
		RetryAfter:    *retryAfter,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	bound := ln.Addr().String()
	// The addr file is how scripted clients find an ephemeral-port daemon;
	// atomic so a concurrent reader never sees a half-written address.
	addrFile := filepath.Join(*dir, "decepticond.addr")
	if err := fsatomic.WriteFile(addrFile, []byte(bound+"\n")); err != nil {
		return err
	}
	defer os.Remove(addrFile)

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	log.Printf("serving campaigns on http://%s (state: %s)", bound, *dir)

	select {
	case <-rt.Ctx.Done():
		log.Printf("shutdown signal; draining (timeout %s)...", *drainTimeout)
	case err := <-serveErr:
		return fmt.Errorf("http serve: %w", err)
	}
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		hs.Close()
	}
	log.Printf("drained; state persisted under %s", *dir)
	return nil
}
