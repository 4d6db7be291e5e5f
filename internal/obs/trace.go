package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
)

// Track process ids. Trace events group under a (pid, tid) pair in the
// Chrome trace_event model; the pipeline maps its stages onto three
// synthetic "processes" so a campaign renders as parallel swimlanes.
const (
	// PidPipeline is the serial orchestration lane (zoo build,
	// classifier training, campaign bracketing) — always tid 0.
	PidPipeline = 1
	// PidZoo holds one lane per model trained during zoo construction.
	PidZoo = 2
	// PidCampaign holds one lane per attacked victim.
	PidCampaign = 3
	// PidFingerprint holds one lane per level-1 classifier trained
	// concurrently (the hierarchical identifier's shards).
	PidFingerprint = 4
)

// TraceEvent is one Chrome/Perfetto trace_event JSON object. Only the
// phases the tracer emits are modeled: "X" (complete span), "i"
// (instant), and "M" (metadata: process/thread names).
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Attr is one span/instant attribute. Use the A constructor from other
// packages (an unkeyed composite literal trips go vet).
type Attr struct {
	Key   string
	Value any
}

// A builds an attribute.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Tracer collects deterministic trace events across tracks. Timestamps
// are NOT wall time: every track carries its own logical clock in
// virtual microseconds, advanced by one tick per structural event plus
// whatever simulated units the instrumented code reports via
// Track.Advance (oracle rounds, gpusim kernel time, training work
// units). Because each track's content derives only from its own item's
// deterministic work, the exported trace is byte-identical for any
// worker count — the OrderedSink discipline applied to trace data.
//
// A nil *Tracer is a valid no-op: Track returns a nil *Track whose
// methods all no-op, so instrumentation costs one nil check when
// tracing is off.
type Tracer struct {
	mu     sync.Mutex
	tracks map[trackKey]*Track
	flight *FlightRecorder
}

type trackKey struct{ pid, tid int64 }

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{tracks: make(map[trackKey]*Track)} }

// SetFlight mirrors every completed span and instant into a flight
// recorder (see FlightRecorder). Nil detaches.
func (t *Tracer) SetFlight(f *FlightRecorder) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.flight = f
	for _, tk := range t.tracks {
		tk.setFlight(f)
	}
	t.mu.Unlock()
}

// Track returns the track for (pid, tid), creating it with the given
// display name on first use (later names are ignored). Returns nil (a
// valid no-op track) on a nil tracer. Tracks are single-owner by
// convention — one goroutine records into one track — but are
// internally locked, so misuse degrades to contention, not corruption.
func (t *Tracer) Track(pid, tid int64, name string) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := trackKey{pid, tid}
	tk, ok := t.tracks[k]
	if !ok {
		tk = &Track{pid: pid, tid: tid, name: name, flight: t.flight}
		t.tracks[k] = tk
	}
	return tk
}

// processName maps the pipeline's synthetic pids to display names.
func processName(pid int64) string {
	switch pid {
	case PidPipeline:
		return "pipeline"
	case PidZoo:
		return "zoo build"
	case PidCampaign:
		return "campaign"
	case PidFingerprint:
		return "fingerprint training"
	}
	return fmt.Sprintf("process %d", pid)
}

// traceFile is the Chrome trace_event JSON object form.
type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []TraceEvent `json:"traceEvents"`
}

// Events returns every completed event: process/thread metadata first,
// then each track's events in recording order, tracks sorted by
// (pid, tid) — a fully deterministic flattening.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	tracks := make([]*Track, 0, len(t.tracks))
	for _, tk := range t.tracks {
		tracks = append(tracks, tk)
	}
	t.mu.Unlock()
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tracks[i].tid < tracks[j].tid
	})
	var out []TraceEvent
	seenPid := map[int64]bool{}
	for _, tk := range tracks {
		if !seenPid[tk.pid] {
			seenPid[tk.pid] = true
			out = append(out, TraceEvent{
				Name: "process_name", Ph: "M", Pid: tk.pid,
				Args: map[string]any{"name": processName(tk.pid)},
			})
		}
		out = append(out, TraceEvent{
			Name: "thread_name", Ph: "M", Pid: tk.pid, Tid: tk.tid,
			Args: map[string]any{"name": tk.name},
		})
	}
	for _, tk := range tracks {
		out = append(out, tk.events()...)
	}
	return out
}

// WriteJSON writes the trace in Chrome trace_event JSON (the "JSON
// object format"), loadable by Perfetto (ui.perfetto.dev) and
// chrome://tracing. Output is byte-deterministic: map keys marshal
// sorted, track order is (pid, tid), and no wall-clock value is ever
// recorded.
func (t *Tracer) WriteJSON(w io.Writer) error {
	f := traceFile{DisplayTimeUnit: "ms", TraceEvents: t.Events()}
	if f.TraceEvents == nil {
		f.TraceEvents = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// ReadTraceFile parses a trace file written by WriteFile back into its
// event list — the validation side of the format (cmd/metricscheck).
func ReadTraceFile(path string) ([]TraceEvent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: read trace: %w", err)
	}
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("obs: parse trace %s: %w", path, err)
	}
	return f.TraceEvents, nil
}

// WriteFile writes the trace JSON to path.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: write trace: %w", err)
	}
	err = t.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Track is one timeline lane with its own logical clock (virtual
// microseconds). Begin/Instant/End advance the clock by one tick each;
// Advance adds simulated units in between, which is how spans acquire
// meaningful durations without touching wall time. All methods are
// nil-safe.
type Track struct {
	mu     sync.Mutex
	pid    int64
	tid    int64
	name   string
	clock  int64
	nextID int64
	stack  []*TraceSpan
	evs    []TraceEvent
	flight *FlightRecorder
}

func (tk *Track) setFlight(f *FlightRecorder) {
	if tk == nil {
		return
	}
	tk.mu.Lock()
	tk.flight = f
	tk.mu.Unlock()
}

// events returns a copy of the completed events.
func (tk *Track) events() []TraceEvent {
	if tk == nil {
		return nil
	}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return append([]TraceEvent(nil), tk.evs...)
}

// Clock returns the track's current logical time.
func (tk *Track) Clock() int64 {
	if tk == nil {
		return 0
	}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return tk.clock
}

// Advance moves the track's logical clock forward n units (n <= 0
// no-ops). Call it with simulated quantities — oracle rounds, gpusim
// microseconds, training work units — so enclosing spans carry
// deterministic durations.
func (tk *Track) Advance(n int64) {
	if tk == nil || n <= 0 {
		return
	}
	tk.mu.Lock()
	tk.clock += n
	tk.mu.Unlock()
}

// Begin opens a hierarchical span: its parent is the innermost span
// still open on this track. Close with End (LIFO; defer works). On a
// nil track Begin returns nil, whose End no-ops.
func (tk *Track) Begin(name string, attrs ...Attr) *TraceSpan {
	if tk == nil {
		return nil
	}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	tk.nextID++
	sp := &TraceSpan{tk: tk, name: name, ts: tk.clock, id: tk.nextID}
	if n := len(tk.stack); n > 0 {
		sp.parent = tk.stack[n-1].id
	}
	sp.args = attrArgs(attrs)
	tk.stack = append(tk.stack, sp)
	tk.clock++
	return sp
}

// Instant records a zero-duration marker (thread-scoped).
func (tk *Track) Instant(name string, attrs ...Attr) {
	if tk == nil {
		return
	}
	tk.mu.Lock()
	ev := TraceEvent{
		Name: name, Ph: "i", TS: tk.clock, Pid: tk.pid, Tid: tk.tid,
		S: "t", Args: attrArgs(attrs),
	}
	tk.clock++
	tk.evs = append(tk.evs, ev)
	f := tk.flight
	tk.mu.Unlock()
	f.Note("instant", name, map[string]string{
		"pid": strconv.FormatInt(tk.pid, 10), "tid": strconv.FormatInt(tk.tid, 10),
	})
}

func attrArgs(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// TraceSpan is one open span on a track.
type TraceSpan struct {
	tk     *Track
	name   string
	ts     int64
	id     int64
	parent int64
	args   map[string]any
	done   bool
}

// End closes the span and emits its "X" event. Idempotent and nil-safe
// (`defer sp.End()` needs no branch). Spans must close innermost-first;
// ending an outer span force-closes any children still open above it.
func (sp *TraceSpan) End() {
	if sp == nil || sp.done {
		return
	}
	tk := sp.tk
	tk.mu.Lock()
	// Pop everything above this span (stragglers end where their parent
	// ends), then the span itself.
	var dur int64
	for i := len(tk.stack) - 1; i >= 0; i-- {
		top := tk.stack[i]
		tk.stack = tk.stack[:i]
		if !top.done {
			top.done = true
			d := top.emitLocked()
			if top == sp {
				dur = d
			}
		}
		if top == sp {
			break
		}
	}
	f := tk.flight
	name := sp.name
	tk.mu.Unlock()
	f.Note("span", name, map[string]string{
		"pid": strconv.FormatInt(tk.pid, 10), "tid": strconv.FormatInt(tk.tid, 10),
		"dur": strconv.FormatInt(dur, 10),
	})
}

// emitLocked appends the completed "X" event and returns its duration;
// tk.mu must be held.
func (sp *TraceSpan) emitLocked() int64 {
	tk := sp.tk
	end := tk.clock
	tk.clock++
	args := map[string]any{"id": sp.id}
	if sp.parent != 0 {
		args["parent"] = sp.parent
	}
	for k, v := range sp.args {
		args[k] = v
	}
	tk.evs = append(tk.evs, TraceEvent{
		Name: sp.name, Ph: "X", TS: sp.ts, Dur: end - sp.ts,
		Pid: tk.pid, Tid: tk.tid, Args: args,
	})
	return end - sp.ts
}
