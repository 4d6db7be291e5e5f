package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"decepticon/internal/obs"
)

// span is one timed call into a layer. The layer is the span name's
// first dot-separated element. IDs are unique within a run, and every
// span of one victim or campaign carries that victim's or campaign's
// ID as its own ID or as a prefix of it.
type span struct {
	ID     string  `json:"id"`
	Parent string  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the traced run began
	End    float64 `json:"end_s"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A
// nil *spanLog records nothing, so the untraced run takes the same
// code path without instrumentation.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(id, parent, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(l.t0).Seconds(), End: end.Sub(l.t0).Seconds()})
	l.mu.Unlock()
}

// wrap runs fn inside a span.
func (l *spanLog) wrap(id, parent, name string, fn func() error) error {
	start := time.Now()
	err := fn()
	l.add(id, parent, name, start, time.Now())
	return err
}

// selfTimes sums, per layer, each span's duration minus the part of it
// that its child spans cover.
func (l *spanLog) selfTimes() map[string]float64 {
	children := map[string][]span{}
	for _, s := range l.spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range l.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, reach := 0.0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

func (l *spanLog) writeFile(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// victimSpans returns a progress tracker that turns the stage events
// core.Attack reports for each victim into one span per victim, with a
// child span per pipeline stage. A victim ends at the terminal label
// RunContext sets last (done, failed, skipped or interrupted); finish
// closes whatever the campaign left open. Untraced runs get a nil
// tracker, which core treats as off.
func victimSpans(l *spanLog, campaignID string) (tracker *obs.ProgressTracker, finish func(end time.Time)) {
	if l == nil {
		return nil, func(time.Time) {}
	}
	terminal := map[string]bool{"done": true, "failed": true, "skipped": true, "interrupted": true}
	type open struct {
		start, stageStart time.Time
		stage             string
	}
	var mu sync.Mutex
	victims := map[string]*open{}
	closeStage := func(id string, v *open, now time.Time) {
		if v.stage == "" {
			return
		}
		name := "core." + v.stage
		if v.stage == "extract" {
			name = "extract.run"
		}
		l.add(id+"/"+v.stage, id, name, v.stageStart, now)
		v.stage = ""
	}
	tracker = obs.NewProgress()
	tracker.OnEvent(func(ev obs.ProgressEvent) {
		if ev.Kind != obs.ProgressStage {
			return
		}
		now := time.Now()
		id := campaignID + "/" + ev.Item
		mu.Lock()
		defer mu.Unlock()
		v := victims[ev.Item]
		if v == nil {
			v = &open{start: now}
			victims[ev.Item] = v
		}
		if ev.Stage == v.stage {
			return
		}
		closeStage(id, v, now)
		if terminal[ev.Stage] {
			l.add(id, campaignID, "core.victim", v.start, now)
			delete(victims, ev.Item)
			return
		}
		v.stage, v.stageStart = ev.Stage, now
	})
	return tracker, func(end time.Time) {
		mu.Lock()
		defer mu.Unlock()
		for item, v := range victims {
			id := campaignID + "/" + item
			closeStage(id, v, end)
			l.add(id, campaignID, "core.victim", v.start, end)
		}
		clear(victims)
	}
}

// cpuClock samples the process's CPU time so that the CPU use of an
// interval known only by its wall-clock bounds can be read afterwards.
// A nil *cpuClock is off.
type cpuClock struct {
	mu   sync.Mutex
	pts  []cpuPoint
	done chan struct{}
	wg   sync.WaitGroup
}

type cpuPoint struct {
	at  time.Time
	cpu float64
}

const cpuSampleEvery = 20 * time.Millisecond

func startCPUClock() *cpuClock {
	c := &cpuClock{done: make(chan struct{})}
	c.sample()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(cpuSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *cpuClock) sample() {
	p := cpuPoint{at: time.Now(), cpu: processCPU()}
	c.mu.Lock()
	c.pts = append(c.pts, p)
	c.mu.Unlock()
}

func (c *cpuClock) stop() {
	if c == nil {
		return
	}
	close(c.done)
	c.wg.Wait()
	c.sample()
}

// util returns the share of GOMAXPROCS cores the process kept busy
// between a and b, interpolating between samples.
func (c *cpuClock) util(a, b time.Time) float64 {
	if c == nil || !b.After(a) {
		return 0
	}
	c.sample()
	return (c.at(b) - c.at(a)) / b.Sub(a).Seconds() / float64(runtime.GOMAXPROCS(0))
}

func (c *cpuClock) at(t time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := sort.Search(len(c.pts), func(i int) bool { return !c.pts[i].at.Before(t) })
	switch {
	case i == 0:
		return c.pts[0].cpu
	case i == len(c.pts):
		return c.pts[i-1].cpu
	}
	p, q := c.pts[i-1], c.pts[i]
	f := t.Sub(p.at).Seconds() / q.at.Sub(p.at).Seconds()
	return p.cpu + f*(q.cpu-p.cpu)
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
