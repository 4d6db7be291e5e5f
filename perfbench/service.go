package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"decepticon/internal/core"
	"decepticon/internal/obs"
	"decepticon/internal/service"
	"decepticon/internal/zoo"
)

// serviceRate is the open loop's offered load in campaigns per second:
// about a third of what the two runners sustain on two cores, so
// latency measures service time and short queueing rather than a
// growing backlog. Over the 20 s run length it offers 90 campaigns,
// three whole double rounds of the schedule.
const serviceRate = 4.5

// daemon is one campaign server behind a loopback HTTP listener.
type daemon struct {
	srv  *service.Server
	http *http.Server
	base string
	dir  string
	reg  *obs.Registry
	zoo  *zoo.Zoo
	done chan struct{} // closed when Serve returns
}

// startDaemon starts service.New with two runners on the fresh state
// directory dir and serves its handler on a loopback port.
func startDaemon(cfg runConfig, dir, id string, z *zoo.Zoo, atk *core.Attack, reg *obs.Registry) (*daemon, error) {
	d := &daemon{dir: dir, reg: reg, zoo: z, done: make(chan struct{})}
	err := cfg.spans.wrap(id+"/service", id, "service.new", func() (err error) {
		d.srv, err = service.New(service.Config{Dir: dir, Attack: atk, Obs: reg, Runners: workers})
		return err
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Drain(context.Background())
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.done)
		d.http.Serve(ln)
	}()
	return d, nil
}

// stop drains the server, closes the listener and waits for both.
func (d *daemon) stop(ctx context.Context) error {
	err := d.srv.Drain(ctx)
	err = errors.Join(err, d.http.Shutdown(ctx))
	<-d.done
	return err
}

// runServiceOpen drives the campaign daemon with an open loop of short
// trace-only, fault-free, baseline-extraction campaigns while a follower
// reads their status and result streams.
func runServiceOpen(ctx context.Context, cfg runConfig) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	if err := ensureStore(ctx, cfg); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.work, "service-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	var daemons []*daemon
	defer func() {
		for _, d := range daemons {
			d.stop(ctx) // only reached on an error path, which is reported
		}
	}()
	err = repeatSetup(cfg, o, func(id string, reg *obs.Registry) error {
		z, atk, err := warmSetup(ctx, cfg, id, reg, o)
		if err != nil {
			return err
		}
		d, err := startDaemon(cfg, filepath.Join(root, id), id, z, atk, reg)
		if err != nil {
			return err
		}
		daemons = append(daemons, d)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Only the last set-up serves; the others stop before anything is
	// timed.
	for len(daemons) > 1 {
		if err := daemons[0].stop(ctx); err != nil {
			return nil, err
		}
		daemons = daemons[1:]
	}
	d := daemons[0]
	names := make([]string, len(d.zoo.FineTuned))
	for i, v := range d.zoo.FineTuned {
		names[i] = v.Name
	}
	l := newLoad(cfg, d, schedule(cfg.seed, cfg.seconds, names))
	if err := l.run(ctx); err != nil {
		return nil, err
	}
	l.score(o)
	// The ledgers are complete once the server has drained.
	if err := d.stop(ctx); err != nil {
		return nil, err
	}
	daemons = nil
	for _, c := range l.campaigns {
		if c.id == "" {
			continue
		}
		events, err := service.ReadLedgerFile(filepath.Join(d.dir, "campaigns", c.id, "events.ndjson"))
		if err == nil {
			err = service.ValidateLedger(events)
		}
		o.check(err == nil, "%s: ledger: %v", c.id, err)
	}
	return o, nil
}

// arrival is one campaign of the open loop.
type arrival struct {
	due     time.Duration // after the attack phase starts
	victims []string
	seed    uint64
}

// schedule derives the open loop from the workload seed. Campaign i is
// due at a uniformly random instant of its own 1/serviceRate slot, so
// every run offers the same number of campaigns at the same mean rate.
// The seed shuffles the victims once, and the campaigns walk that order
// round and round: two one-victim campaigns, then a two-victim one, with
// the pattern shifted by half a step on every other round. Over two
// rounds each victim is thus attacked once alone and once in a pair.
// Victims differ several-fold in attack cost, and this fixed mix of
// work keeps the latency percentiles from jumping with whichever
// victims a seed happens to pick. Each victim recurs only every 15
// campaigns, over 3 s apart: a campaign never attacks a victim that
// another campaign still in flight is attacking (see CHANGES.md).
func schedule(seed uint64, seconds int, names []string) []arrival {
	order := append([]string(nil), names...)
	for i := len(order) - 1; i > 0; i-- {
		j := int(derive(seed, "shuffle", uint64(i)) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	n := len(order)
	out := make([]arrival, int(float64(seconds)*serviceRate))
	slot := 0
	for i := range out {
		u := float64(derive(seed, "arrival", uint64(i))>>11) / (1 << 53)
		out[i] = arrival{
			due:  time.Duration((float64(i) + u) / serviceRate * float64(time.Second)),
			seed: derive(seed, "measure", uint64(i)),
		}
		p, oddRound := slot%n, (slot/n)%2 == 1
		out[i].victims = []string{order[p]}
		slot++
		if (p%4 >= 2) != oddRound && p+1 < n {
			out[i].victims = append(out[i].victims, order[p+1])
			slot++
		}
	}
	return out
}

// sent is what the load generator and follower learned about one
// campaign.
type sent struct {
	arrival
	id                       string
	dueAt, sendAt            time.Time
	submitted                time.Duration
	refused                  string
	status                   service.CampaignStatus
	results                  []service.VictimResult
	resultsErr               error
	resultsStart, resultsEnd time.Time
}

type load struct {
	cfg       runConfig
	d         *daemon
	client    *http.Client
	campaigns []*sent

	mu          sync.Mutex // guards the samples below
	statusReads []float64
	queueMax    int
}

func newLoad(cfg runConfig, d *daemon, plan []arrival) *load {
	l := &load{cfg: cfg, d: d, client: &http.Client{}}
	for _, a := range plan {
		l.campaigns = append(l.campaigns, &sent{arrival: a})
	}
	return l
}

// run sends every campaign at its due time from one generator goroutine
// while one follower goroutine reads each admitted campaign's result
// stream and then its status until it is terminal.
func (l *load) run(ctx context.Context) error {
	defer l.client.CloseIdleConnections()
	admitted := make(chan *sent, len(l.campaigns)) // never blocks the generator
	t0 := time.Now()
	var wg sync.WaitGroup
	var genErr, followErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(admitted)
		genErr = l.generate(ctx, t0, admitted)
	}()
	go func() {
		defer wg.Done()
		for c := range admitted {
			if followErr == nil {
				followErr = l.follow(ctx, c)
			}
		}
	}()
	wg.Wait()
	return errors.Join(genErr, followErr)
}

func (l *load) generate(ctx context.Context, t0 time.Time, admitted chan<- *sent) error {
	for _, c := range l.campaigns {
		c.dueAt = t0.Add(c.due)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Until(c.dueAt)):
		}
		c.sendAt = time.Now()
		spec := service.CampaignSpec{Tenant: "bench", Victims: c.victims, MeasureSeed: c.seed}
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.d.base+"/campaigns", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := l.client.Do(req)
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		var st service.CampaignStatus
		derr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		c.submitted = time.Since(c.sendAt)
		l.sampleQueue()
		if resp.StatusCode != http.StatusAccepted || derr != nil {
			c.refused = fmt.Sprintf("HTTP %d (decode: %v)", resp.StatusCode, derr)
			continue
		}
		c.id = st.ID
		admitted <- c
	}
	return nil
}

func (l *load) follow(ctx context.Context, c *sent) error {
	c.resultsStart = time.Now()
	c.results, c.resultsErr = l.readResults(ctx, c.id)
	c.resultsEnd = time.Now()
	for {
		start := time.Now()
		st, err := l.getStatus(ctx, c.id)
		l.mu.Lock()
		l.statusReads = append(l.statusReads, time.Since(start).Seconds())
		l.mu.Unlock()
		l.cfg.spans.add(fmt.Sprintf("%s/status%d", c.id, len(l.statusReads)), c.id, "service.status_read", start, time.Now())
		l.sampleQueue()
		if err != nil {
			return err
		}
		if st.Terminal() || st.State == service.StateInterrupted {
			c.status = st
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (l *load) readResults(ctx context.Context, id string) ([]service.VictimResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.d.base+"/campaigns/"+id+"/results", nil)
	if err != nil {
		return nil, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var out []service.VictimResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var vr service.VictimResult
		if err := json.Unmarshal(sc.Bytes(), &vr); err != nil {
			return out, err
		}
		out = append(out, vr)
	}
	return out, sc.Err()
}

func (l *load) getStatus(ctx context.Context, id string) (service.CampaignStatus, error) {
	var st service.CampaignStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.d.base+"/campaigns/"+id, nil)
	if err != nil {
		return st, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return st, fmt.Errorf("status of %s: HTTP %d", id, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (l *load) sampleQueue() {
	queued, _ := l.d.srv.QueueDepth()
	l.mu.Lock()
	l.queueMax = max(l.queueMax, queued)
	l.mu.Unlock()
}

// score checks every campaign's outputs and turns the load into the
// outcome's metrics.
func (l *load) score(o *outcome) {
	var first, last time.Time
	var physical, hammer int64
	var lags, submits, waits, runs []float64
	for i, c := range l.campaigns {
		if i == 0 {
			first = c.dueAt
		}
		lags = append(lags, c.sendAt.Sub(c.dueAt).Seconds())
		o.check(c.refused == "", "campaign %d refused: %s", i, c.refused)
		if c.id == "" {
			continue
		}
		st := c.status
		o.check(st.State == service.StateDone, "%s ended %s: %s", c.id, st.State, st.Error)
		if st.FinishedAt == nil || st.StartedAt == nil || st.SubmittedAt == nil {
			continue
		}
		if st.FinishedAt.After(last) {
			last = *st.FinishedAt
		}
		submits = append(submits, c.submitted.Seconds())
		waits = append(waits, st.StartedAt.Sub(*st.SubmittedAt).Seconds())
		runs = append(runs, st.FinishedAt.Sub(*st.StartedAt).Seconds())
		o.campaigns = append(o.campaigns, st.FinishedAt.Sub(c.dueAt).Seconds())

		o.check(c.resultsErr == nil, "%s: results stream: %v", c.id, c.resultsErr)
		o.check(len(c.results) == len(c.victims), "%s: %d of %d results streamed", c.id, len(c.results), len(c.victims))
		for j, vr := range c.results {
			o.victims++
			o.check(j < len(c.victims) && vr.Index == j && vr.Victim == c.victims[j],
				"%s: result %d (index %d, %q) out of order", c.id, j, vr.Index, vr.Victim)
			extracted := vr.ExtractError == "" && vr.ExtractSkipped == "" && !vr.Interrupted
			o.check(vr.ExtractError == "" && !vr.Interrupted, "%s: victim %s extraction failed or was interrupted", c.id, vr.Victim)
			o.exact.add(vr.Correct, extracted, vr.MatchRate, vr.HammerRounds)
			physical += vr.PhysicalReads
			hammer += vr.HammerRounds
		}

		spans := l.cfg.spans
		spans.add(c.id, "", "service.campaign", c.dueAt, *st.FinishedAt)
		spans.add(c.id+"/submit", c.id, "service.submit", c.sendAt, c.sendAt.Add(c.submitted))
		spans.add(c.id+"/queue", c.id, "service.queue", *st.SubmittedAt, *st.StartedAt)
		spans.add(c.id+"/run", c.id, "service.run", *st.StartedAt, *st.FinishedAt)
		spans.add(c.id+"/results", c.id, "service.results_read", c.resultsStart, c.resultsEnd)
	}
	o.phase = last.Sub(first).Seconds()
	o.attack = o.phase
	o.note("service-open: %d campaigns offered at %.1f/s over the open loop", len(l.campaigns), serviceRate)
	if !l.cfg.traced() {
		return
	}
	snap := l.d.reg.Snapshot()
	o.check(snap.Counters["sidechannel.bit_reads_physical"] == physical,
		"streamed physical reads %d do not reconcile with the registry's %d", physical, snap.Counters["sidechannel.bit_reads_physical"])
	o.check(snap.Counters["sidechannel.hammer_rounds"] == hammer,
		"streamed hammer rounds %d do not reconcile with the registry's %d", hammer, snap.Counters["sidechannel.hammer_rounds"])
	attackLayers(o, snap)
	o.layers["service.submit_s"] = median(submits)
	o.layers["service.queue_wait_s"] = median(waits)
	o.layers["service.run_s"] = median(runs)
	o.layers["service.status_read_s"] = median(l.statusReads)
	o.layers["service.queue_depth_max"] = float64(l.queueMax)
	o.layers["gen.lag_s"] = maxOf(lags)
}
