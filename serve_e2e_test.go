package cohesion

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// The end-to-end serving tests drive the real engine through the real
// HTTP API: submit → poll → result, asserting the service returns the
// exact same memory fingerprints as running the simulator directly
// (testdata/fingerprints.json, the tier-1 golden matrix).

// resultBody is the JSON shape of GET /v1/jobs/{id}/result.
type resultBody struct {
	ID      string      `json:"id"`
	State   string      `json:"state"`
	Outcome *JobOutcome `json:"outcome"`
	Error   string      `json:"error"`
}

// serveTestClient wraps the raw HTTP API for tests.
type serveTestClient struct {
	t    *testing.T
	base string
}

func (c *serveTestClient) submit(spec JobSpec) (string, *http.Response) {
	c.t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		c.t.Fatalf("marshaling spec: %v", err)
	}
	resp, err := http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out.ID, resp
}

func (c *serveTestClient) jobState(id string) (string, bool) {
	c.t.Helper()
	resp, err := http.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		c.t.Fatalf("GET /v1/jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return "", false
	}
	var v struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		c.t.Fatalf("decoding job view: %v", err)
	}
	return v.State, true
}

func (c *serveTestClient) waitTerminal(id string, timeout time.Duration) string {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, ok := c.jobState(id)
		if !ok {
			c.t.Fatalf("job %s vanished while polling", id)
		}
		switch st {
		case "done", "canceled", "failed":
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, _ := c.jobState(id)
	c.t.Fatalf("job %s did not finish within %v (state %s)", id, timeout, st)
	return ""
}

func (c *serveTestClient) result(id string) (resultBody, int) {
	c.t.Helper()
	resp, err := http.Get(c.base + "/v1/jobs/" + id + "/result")
	if err != nil {
		c.t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	var rb resultBody
	_ = json.NewDecoder(resp.Body).Decode(&rb)
	return rb, resp.StatusCode
}

func (c *serveTestClient) cancel(id string) int {
	c.t.Helper()
	req, err := http.NewRequest(http.MethodDelete, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// loadGoldenFingerprints reads the tier-1 golden matrix the direct-run
// test maintains; serving the same spec must reproduce these exactly.
func loadGoldenFingerprints(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(fingerprintsFile)
	if err != nil {
		t.Fatalf("reading %s: %v", fingerprintsFile, err)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("parsing %s: %v", fingerprintsFile, err)
	}
	return golden
}

// newE2EServer starts a real JobServer (real engine) behind httptest.
func newE2EServer(t *testing.T, opt ServeOptions) (*JobServer, *serveTestClient) {
	t.Helper()
	if opt.StateDir == "" {
		opt.StateDir = t.TempDir()
	}
	js, err := NewJobServer(opt)
	if err != nil {
		t.Fatalf("NewJobServer: %v", err)
	}
	ts := httptest.NewServer(js.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := js.Drain(ctx); err != nil {
			t.Errorf("Drain: %v", err)
		}
		ts.Close()
	})
	return js, &serveTestClient{t: t, base: ts.URL}
}

// TestServeE2EGoldenMatrix submits every kernel under every mode through
// the HTTP API and checks each job's fingerprint against the golden
// file — the service must be a transparent front door, bit for bit.
func TestServeE2EGoldenMatrix(t *testing.T) {
	golden := loadGoldenFingerprints(t)
	_, c := newE2EServer(t, ServeOptions{Workers: 4, QueueDepth: 64})

	type submitted struct{ id, key string }
	var jobs []submitted
	for _, r := range fingerprintRuns() {
		spec := JobSpec{
			Kernel:   r.Kernel,
			Mode:     strings.ToLower(r.Mode.String()),
			Clusters: 2,
			Scale:    1,
			Seed:     42,
			Verify:   true,
		}
		id, resp := c.submit(spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s/%v: status %d", r.Kernel, r.Mode, resp.StatusCode)
		}
		jobs = append(jobs, submitted{id, fmt.Sprintf("%s/%v", r.Kernel, r.Mode)})
	}
	for _, j := range jobs {
		if st := c.waitTerminal(j.id, 120*time.Second); st != "done" {
			rb, _ := c.result(j.id)
			t.Fatalf("%s (%s): state %s, error %q", j.key, j.id, st, rb.Error)
		}
		rb, code := c.result(j.id)
		if code != http.StatusOK {
			t.Fatalf("%s: result status %d", j.key, code)
		}
		want, ok := golden[j.key]
		if !ok {
			t.Fatalf("no golden fingerprint for %s", j.key)
		}
		if rb.Outcome == nil || rb.Outcome.MemFingerprint != want {
			t.Errorf("%s: served fingerprint = %+v, golden %s", j.key, rb.Outcome, want)
		}
		if rb.Outcome != nil && rb.Outcome.Partial {
			t.Errorf("%s: completed job marked partial", j.key)
		}
	}
}

// TestServeE2ECancelMidRun cancels a long-running job and checks the
// partial-result shape: 200 from /result with state canceled, a partial
// outcome, and a non-empty error.
func TestServeE2ECancelMidRun(t *testing.T) {
	_, c := newE2EServer(t, ServeOptions{Workers: 1, QueueDepth: 4})

	// dmm at scale 12 runs multiple seconds — a wide-open cancel window.
	id, resp := c.submit(JobSpec{Kernel: "dmm", Mode: "cohesion", Clusters: 2, Scale: 12, Seed: 42})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, _ := c.jobState(id)
		if st == "running" {
			break
		}
		if st == "done" || time.Now().After(deadline) {
			t.Fatalf("job reached %s before it could be canceled", st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// /result while running answers 409 with the current state.
	if _, code := c.result(id); code != http.StatusConflict {
		t.Fatalf("result while running = %d, want 409", code)
	}

	if code := c.cancel(id); code != http.StatusAccepted {
		t.Fatalf("cancel = %d, want 202", code)
	}
	if st := c.waitTerminal(id, 60*time.Second); st != "canceled" {
		t.Fatalf("state after cancel = %s, want canceled", st)
	}
	rb, code := c.result(id)
	if code != http.StatusOK {
		t.Fatalf("result of canceled job = %d, want 200", code)
	}
	if rb.State != "canceled" || rb.Error == "" {
		t.Fatalf("partial-result shape = %+v, want canceled + error", rb)
	}
	if rb.Outcome == nil || !rb.Outcome.Partial {
		t.Fatalf("canceled job outcome = %+v, want a partial outcome", rb.Outcome)
	}
	if rb.Outcome.Events == 0 {
		t.Error("partial outcome reports zero executed events")
	}
}

// TestServeSlowHeaderClientClosed opens a raw TCP connection to Serve and
// trickles header bytes without ever ending the header block. The server
// must close the connection once the header timeout passes, not hold it
// (and its goroutine) for as long as the client keeps trickling.
func TestServeSlowHeaderClientClosed(t *testing.T) {
	const timeout = 300 * time.Millisecond
	saved := headerTimeout
	headerTimeout = timeout
	t.Cleanup(func() { headerTimeout = saved })

	addrc := make(chan string, 1)
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- Serve(ctx, ServeOptions{
			Addr:     "127.0.0.1:0",
			StateDir: t.TempDir(),
			Workers:  1,
			Logf: func(format string, args ...any) {
				if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, "listening on ") {
					addrc <- strings.TrimPrefix(line, "listening on ")
				}
			},
		})
	}()
	t.Cleanup(func() {
		stop()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	var addr string
	select {
	case addr = <-addrc:
	case err := <-served:
		t.Fatalf("Serve returned before listening: %v", err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Slow: "); err != nil {
		t.Fatalf("write: %v", err)
	}
	closed := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, conn)
		closed <- err
	}()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	giveUp := time.After(10 * timeout)
	for {
		select {
		case <-closed:
			if held := time.Since(start); held < timeout {
				t.Fatalf("connection closed after %v, before the %v header timeout", held, timeout)
			}
			return
		case <-tick.C:
			// One more header byte: progress that must not extend the
			// header deadline. A write error means the server already
			// closed; the reader sees that next.
			_, _ = conn.Write([]byte("a"))
		case <-giveUp:
			t.Fatalf("server still held a trickling connection after %v", 10*timeout)
		}
	}
}
