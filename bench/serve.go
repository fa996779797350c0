package main

// The serving harness: an in-process mcdbserver behind a loopback
// listener, the HTTP client that drives it over at most `clients`
// keep-alive connections, and the closed- and open-loop runners.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"modeldata/internal/mcdb"
	"modeldata/internal/obs"
	"modeldata/internal/server"
)

// clients bounds connections and sender goroutines. It is fixed (not
// NumCPU) so a schedule means the same thing on every machine.
const clients = 2

// openLimit is the serve_open latency limit, from the due time.
const openLimit = 250 * time.Millisecond

// serving is one system under test.
type serving struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	dbs    map[string]*mcdb.DB
}

// newServing starts the server as cmd/mcdbserver ships it, except for
// the three fields the benchmark pins.
func newServing(dbs map[string]*mcdb.DB) *serving {
	srv := server.New(server.Config{BaseSeed: 1, Shards: 2, MaxWorkers: 2})
	for _, name := range sortedKeys(dbs) {
		srv.AddTenant(name, dbs[name])
	}
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	return &serving{srv: srv, ts: ts, client: &http.Client{Transport: tr}, dbs: dbs}
}

func (s *serving) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}

// post sends one request and reads the whole response into buf.
func (s *serving) post(ctx context.Context, o *op, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// sample is the record of one measured request.
type sample struct {
	pos     int32 // position in plan.order, -1 for a set-up request
	op      *op
	lat     time.Duration
	done    time.Time     // when the reply had been read
	lag     time.Duration // open loop: send time − due time
	queued  bool          // open loop: no sender was free at the due time
	size    int           // response body bytes
	status  int           // 0 for a transport error or a shed request
	shed    bool
	matched bool   // body equalled the verified canonical answer for this key
	bad     bool   // set by the oracle: non-200 or a wrong answer
	body    []byte // kept for the oracle when not matched
}

// canon maps a hot op to the verified response body of its key as
// served from the result cache. It is read-only while a phase runs.
type canon map[*op][]byte

// warm sends every set-up request once, then every hot one again: the
// second answer comes from the result cache and, once verified, is the
// body every later hit on that key must equal.
func (s *serving) warm(ctx context.Context, p *schedule) (first, cached []sample, err error) {
	var buf bytes.Buffer
	send := func(o *op) (sample, error) {
		status, err := s.post(ctx, o, &buf)
		if err != nil {
			return sample{}, fmt.Errorf("set-up request (%s, %s): %w", o.kind, o.tenant, err)
		}
		return sample{pos: -1, op: o, status: status, body: append([]byte(nil), buf.Bytes()...)}, nil
	}
	for _, o := range p.warm {
		sm, err := send(o)
		if err != nil {
			return nil, nil, err
		}
		first = append(first, sm)
	}
	for _, o := range p.warm {
		if o.kind != kindHot {
			continue
		}
		sm, err := send(o)
		if err != nil {
			return nil, nil, err
		}
		cached = append(cached, sm)
	}
	return first, cached, nil
}

// senders runs n sender goroutines, each appending the samples of the
// requests it sent, and returns them concatenated per sender with the
// start time and the wall time from it to the last sender's return.
func senders(n int, each func(start time.Time, add func(sample))) ([]sample, time.Time, time.Duration) {
	parts := make([][]sample, n)
	start := obs.Wall.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			each(start, func(sm sample) { parts[c] = append(parts[c], sm) })
		}(c)
	}
	wg.Wait()
	wall := obs.Wall.Now().Sub(start)
	var out []sample
	for _, part := range parts {
		out = append(out, part...)
	}
	return out, start, wall
}

// runClosed drives the schedule with n clients, each sending its next
// request when the previous one completes, until the schedule is
// exhausted or the deadline passes (checked between units).
func (s *serving) runClosed(ctx context.Context, p *schedule, n int, seconds float64, known canon) ([]sample, time.Time, time.Duration) {
	var next atomic.Int64
	var stop atomic.Bool
	return senders(n, func(start time.Time, add func(sample)) {
		var buf bytes.Buffer
		for !stop.Load() {
			lo := int(next.Add(int64(p.unit))) - p.unit
			if lo+p.unit > len(p.order) {
				return
			}
			for i := lo; i < lo+p.unit; i++ {
				add(s.timed(ctx, p, i, obs.Wall.Now(), &buf, known))
			}
			if seconds > 0 && obs.Wall.Now().Sub(start).Seconds() >= seconds {
				stop.Store(true)
			}
		}
	})
}

// timed sends plan position i and times it from `from`.
func (s *serving) timed(ctx context.Context, p *schedule, i int, from time.Time, buf *bytes.Buffer, known canon) sample {
	o := p.pool[p.order[i]]
	status, err := s.post(ctx, o, buf)
	done := obs.Wall.Now()
	sm := sample{pos: int32(i), op: o, lat: done.Sub(from), done: done, status: status, size: buf.Len()}
	if err != nil {
		sm.status = 0
		return sm
	}
	if want, ok := known[o]; ok && bytes.Equal(want, buf.Bytes()) {
		sm.matched = true
	} else {
		sm.body = append([]byte(nil), buf.Bytes()...)
	}
	return sm
}

// runOpen sends each request at its due time regardless of earlier
// replies, from `clients` sender goroutines. Latency runs from the due
// time, so a stall is charged to every request it delays. A request
// whose turn comes more than openLimit after it was due is shed: it
// already missed, and sending it would only lengthen the run.
func (s *serving) runOpen(ctx context.Context, p *schedule, known canon) ([]sample, time.Time, time.Duration) {
	var next atomic.Int64
	return senders(clients, func(start time.Time, add func(sample)) {
		var buf bytes.Buffer
		for {
			i := int(next.Add(1)) - 1
			if i >= len(p.order) {
				return
			}
			due := start.Add(p.due[i])
			wait := due.Sub(obs.Wall.Now())
			// Busy-wait, yielding, instead of sleeping. Timers in the
			// sandbox tick at about 1 ms, and a sender that sleeps lets
			// the runtime park its threads; unparking them in a VM costs
			// a host-dependent wake-up that made every percentile above
			// the median a reading of the host (3× swings between
			// runs). A yielding wait hands the core to whatever else is
			// runnable, and blocks — letting the poller run — whenever
			// the sender is waiting for a reply.
			for obs.Wall.Now().Before(due) {
				runtime.Gosched()
			}
			lag := obs.Wall.Now().Sub(due)
			if lag > openLimit {
				add(sample{pos: int32(i), op: p.pool[p.order[i]], lag: lag, queued: true, shed: true})
				continue
			}
			sm := s.timed(ctx, p, i, due, &buf, known)
			sm.lag, sm.queued = lag, wait <= 0
			add(sm)
		}
	})
}
