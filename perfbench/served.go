package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"cohesion"
	"cohesion/internal/serve"
)

// servedSeeds is how many input seeds the 24 kernel x mode specs are
// submitted with per pass (seed 42 first), so a pass is 120 jobs.
const servedSeeds = 5

// pollInterval is the client's wait between status polls. There is no
// wait endpoint; a job takes several milliseconds, so a 1 ms poll adds
// at most about a millisecond to each job's latency.
const pollInterval = time.Millisecond

// servedJobs runs a JobServer in this process, with one worker and the
// default checkpoint interval, behind a loopback HTTP listener, and
// drives it with one client in a closed loop: each job is submitted only
// after the previous one was seen done.
type servedJobs struct {
	specs    []cohesion.JobSpec
	stateDir string // each pass makes a fresh server state directory here

	// servedRun sums the server-side run time (JobView EndedMS -
	// StartedMS) over traced passes, for serve.run_over_plain.
	servedRun time.Duration
}

func newServedJobs(seed int64, stateDir string) *servedJobs {
	w := &servedJobs{stateDir: stateDir}
	for i := 0; i < servedSeeds; i++ {
		s := int64(42)
		if i > 0 {
			s = derive(seed, fmt.Sprintf("served/%d", i))
		}
		for _, k := range cohesion.KernelNames() {
			for _, m := range modes {
				w.specs = append(w.specs, cohesion.JobSpec{Kernel: k, Mode: strings.ToLower(m.String()), Seed: s, Verify: true})
			}
		}
	}
	return w
}

func specKey(s cohesion.JobSpec) string { return fmt.Sprintf("%s/%s/%d", s.Kernel, s.Mode, s.Seed) }

func (w *servedJobs) pass(ctx context.Context, tr *tracer, cal *calibration) (pass, error) {
	var ps pass
	start, c0 := time.Now(), cpuTime()
	setup := tr.begin("serve.setup", 0, "")
	dir, err := os.MkdirTemp(w.stateDir, "state-")
	if err != nil {
		return ps, err
	}
	defer os.RemoveAll(dir)
	js, err := cohesion.NewJobServer(cohesion.ServeOptions{StateDir: dir, Workers: 1})
	if err != nil {
		return ps, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ps, errors.Join(err, js.Drain(ctx))
	}
	hs := &http.Server{Handler: js.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tr.end(setup)
	ps.setup, ps.setupCPU = time.Since(start), cpuTime()-c0

	tp := &http.Transport{MaxIdleConnsPerHost: 1}
	c := &client{http: &http.Client{Transport: tp}, base: "http://" + ln.Addr().String()}
	var wchar0, syscw0 uint64
	if tr != nil {
		wchar0, syscw0 = procIO()
	}
	for _, spec := range w.specs {
		j, out, view := c.runJob(ctx, spec, tr)
		if out != nil {
			ps.instr += out.Instructions
			ps.events += out.Events
		}
		if tr != nil && view.StartedMS > 0 {
			w.servedRun += time.Duration(view.EndedMS-view.StartedMS) * time.Millisecond
		}
		ps.jobs = append(ps.jobs, j)
		cal.gap()
	}
	if tr != nil {
		wchar, syscw := procIO()
		tr.add("io.wchar", float64(wchar-wchar0))
		tr.add("io.syscw", float64(syscw-syscw0))
	}

	drainErr := js.Drain(ctx)
	shutErr := hs.Shutdown(ctx)
	tp.CloseIdleConnections()
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return ps, fmt.Errorf("serve: %w", err)
	}
	ps.wall = time.Since(start)
	return ps, errors.Join(drainErr, shutErr)
}

// client is the benchmark's side of the job API.
type client struct {
	http *http.Client
	base string
}

// runJob submits one job and polls it until it is terminal. The latency
// runs from the POST to the first poll that sees the job terminal. A job
// that is refused (429, 5xx) or ends other than done is a failed job.
func (c *client) runJob(ctx context.Context, spec cohesion.JobSpec, tr *tracer) (job, *cohesion.JobOutcome, cohesion.JobView) {
	key := specKey(spec)
	t0, c0 := time.Now(), cpuTime()
	root := tr.begin("serve.job", 0, key)
	defer tr.end(root)
	j := job{key: key}
	var view cohesion.JobView

	body, err := json.Marshal(spec)
	if err != nil {
		j.err = err
		return j, nil, view
	}
	sub := tr.begin("POST /v1/jobs", root, key)
	var accepted struct {
		ID string `json:"id"`
	}
	code, err := c.do(ctx, http.MethodPost, "/v1/jobs", body, &accepted)
	tr.end(sub)
	tr.add("serve.submit.ns", float64(time.Since(t0)))
	if err == nil && code != http.StatusAccepted {
		tr.add("serve.rejected", 1)
		err = fmt.Errorf("submit answered %d", code)
	}
	if err != nil {
		j.err, j.lat, j.cpu = fmt.Errorf("%s: %w", key, err), time.Since(t0), cpuTime()-c0
		return j, nil, view
	}

	poll := tr.begin("GET /v1/jobs/{id} until terminal", root, key)
	for {
		time.Sleep(pollInterval)
		code, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+accepted.ID, nil, &view)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status answered %d", code)
		}
		if err != nil || view.State.Terminal() {
			break
		}
	}
	tr.end(poll)
	j.lat, j.cpu = time.Since(t0), cpuTime()-c0
	if tr != nil && view.StartedMS > 0 {
		// The server's own timestamps (ms) split the job into queue wait
		// and run.
		q := tr.begin("serve.queue_wait", root, key)
		r := tr.begin("serve.run", root, key)
		at := func(ms int64) int64 { return ms*int64(time.Millisecond) - tr.t0.UnixNano() }
		tr.spans[q-1].Start, tr.spans[q-1].End = at(view.SubmittedMS), at(view.StartedMS)
		tr.spans[r-1].Start, tr.spans[r-1].End = at(view.StartedMS), at(view.EndedMS)
		tr.add("serve.queue_wait.ns", float64(time.Duration(view.StartedMS-view.SubmittedMS)*time.Millisecond))
		tr.add("serve.run.ns", float64(time.Duration(view.EndedMS-view.StartedMS)*time.Millisecond))
		tr.add("serve.jobs", 1)
	}
	switch {
	case err != nil:
		j.err = fmt.Errorf("%s: %w", key, err)
	case view.State != cohesion.JobDone:
		j.err = fmt.Errorf("%s: ended %s: %s", key, view.State, view.Error)
	case view.Outcome == nil:
		j.err = fmt.Errorf("%s: done without an outcome", key)
	default:
		j.cycles = view.Outcome.Cycles
		j.fp, err = strconv.ParseUint(view.Outcome.MemFingerprint, 0, 64)
		if err != nil {
			j.err = fmt.Errorf("%s: fingerprint: %w", key, err)
		}
	}
	return j, view.Outcome, view
}

// do sends one request and decodes a JSON response body into out.
func (c *client) do(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// plainRuns runs the same specs through cohesion.Run in this goroutine,
// without the service: the base of serve.run_over_plain, and the source
// of the protocol counts the job API does not return. A plain run that
// disagrees with its served job is a failed job.
func (w *servedJobs) plainRuns(jobs []job) (time.Duration, counts, []job) {
	served := map[string]job{}
	for _, j := range jobs {
		served[j.key] = j
	}
	var cnt counts
	var total time.Duration
	var bad []job
	for _, spec := range w.specs {
		mode, _ := serve.ParseMode(spec.Mode)
		key := specKey(spec)
		t0 := time.Now()
		res, err := cohesion.Run(cohesion.RunConfig{
			Machine: cohesion.ScaledConfig(2).WithMode(mode),
			Kernel:  spec.Kernel, Scale: 1, Seed: spec.Seed, Verify: spec.Verify,
		})
		total += time.Since(t0)
		if err != nil {
			bad = append(bad, job{key: key, err: fmt.Errorf("plain run %s: %w", key, err)})
			continue
		}
		cnt.add(&res.Stats)
		if s, ok := served[key]; ok && (s.fp != res.MemFingerprint || s.cycles != res.Stats.Cycles) {
			bad = append(bad, job{key: key, err: fmt.Errorf("served %s disagrees with a plain run", key)})
		}
	}
	return total, cnt, bad
}
