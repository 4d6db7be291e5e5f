package cliconfig

import (
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
)

// A daemon calls Close from both the signal path and the serve loop;
// every caller must return only after the artifacts are flushed exactly
// once. Run under -race this also pins the sync.Once discipline (the old
// plain-bool guard raced and could double-write the metrics files).
func TestCloseConcurrent(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	opts := &Options{Metrics: metrics}
	rt, err := Setup(opts)
	if err != nil {
		t.Fatal(err)
	}
	rt.Registry.Counter("test.counter").Inc()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Close()
		}()
	}
	wg.Wait()

	// Every Close returned, so the flush is complete: the snapshot file
	// must exist and hold the counter.
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("metrics not flushed by Close: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("metrics file empty after Close")
	}
}

// Setup's extra signals reach the runtime context: SIGTERM must cancel
// it when registered, exactly like SIGINT.
func TestSetupExtraSignals(t *testing.T) {
	rt, err := Setup(&Options{}, syscall.SIGTERM)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Interrupted() {
		t.Fatal("context cancelled before any signal")
	}
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-rt.Ctx.Done()
	if !rt.Interrupted() {
		t.Fatal("SIGTERM did not cancel the runtime context")
	}
}

// -cpuprofile profiles the whole run: Setup starts it, Close writes it.
func TestCPUProfileWrittenOnClose(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cpu.pprof")
	rt, err := Setup(&Options{CPUProf: path})
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("profile not written by Close: %v", err)
	}
	// pprof profiles are gzip-compressed protocol buffers.
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("profile is not gzip data (%d bytes)", len(data))
	}

	if _, err := Setup(&Options{CPUProf: filepath.Join(dir, "missing", "cpu.pprof")}); err == nil {
		t.Fatal("unwritable -cpuprofile path accepted")
	}
}
