package cohesion

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// The crash test SIGKILLs a live job server mid-batch in a subprocess
// and restarts it on the same state directory: every job — the one that
// finished before the kill, the one that was running, and the ones that
// were still queued — must come out with fingerprints bit-identical to
// uninterrupted reference runs. Recovery is a rerun from the first
// event, and runs are deterministic, so nothing less than bit-identical
// passes.

const (
	crashHelperEnv = "COHESION_SERVE_CRASH_HELPER"
	crashStateEnv  = "COHESION_SERVE_CRASH_STATE"
)

// TestServeCrashHelper is not a test: it is the subprocess body, gated
// on an environment variable, re-executed from the test binary. It runs
// a real job server until the parent kills it.
func TestServeCrashHelper(t *testing.T) {
	if os.Getenv(crashHelperEnv) != "1" {
		t.Skip("subprocess helper")
	}
	err := Serve(context.Background(), ServeOptions{
		Addr:       "127.0.0.1:0",
		StateDir:   os.Getenv(crashStateEnv),
		Workers:    1,
		QueueDepth: 8,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	// Serve only returns on failure here (the parent SIGKILLs us).
	fmt.Printf("serve exited: %v\n", err)
	os.Exit(1)
}

// startCrashHelper launches the helper subprocess and waits for its
// "listening on" line, returning the process and the base URL.
func startCrashHelper(t *testing.T, stateDir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestServeCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(), crashHelperEnv+"=1", crashStateEnv+"="+stateDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting helper: %v", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				addrCh <- strings.TrimSpace(rest)
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, "http://" + addr
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("helper never reported its listen address")
		return nil, ""
	}
}

func TestServeCrashRestartBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	golden := loadGoldenFingerprints(t)
	stateDir := t.TempDir()

	// Uninterrupted reference for the long job (no golden entry at this
	// scale); the short jobs are covered by the golden matrix.
	longSpec := JobSpec{Kernel: "dmm", Mode: "cohesion", Clusters: 2, Scale: 12, Seed: 42}
	refRes, err := Run(RunConfig{
		Machine: ScaledConfig(longSpec.Clusters).WithMode(Cohesion),
		Kernel:  longSpec.Kernel,
		Scale:   longSpec.Scale,
		Seed:    longSpec.Seed,
	})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refLong := fmt.Sprintf("%#016x", refRes.MemFingerprint)

	// Phase A: a live server takes a batch.
	cmdA, base := startCrashHelper(t, stateDir)
	c := &serveTestClient{t: t, base: base}

	// One job finishes cleanly before the crash...
	doneID, resp := c.submit(JobSpec{Kernel: "heat", Mode: "swcc", Clusters: 2, Scale: 1, Seed: 42, Verify: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit pre-crash job: %d", resp.StatusCode)
	}
	if st := c.waitTerminal(doneID, 120*time.Second); st != "done" {
		t.Fatalf("pre-crash job state = %s", st)
	}
	preCrash, _ := c.result(doneID)

	// ...one is running when the kill lands...
	longID, resp := c.submit(longSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit long job: %d", resp.StatusCode)
	}
	for st, _ := c.jobState(longID); st != "running"; st, _ = c.jobState(longID) {
		time.Sleep(2 * time.Millisecond)
	}

	// ...and two are still queued behind the single worker.
	q1, resp1 := c.submit(JobSpec{Kernel: "stencil", Mode: "hwcc", Clusters: 2, Scale: 1, Seed: 42, Verify: true})
	q2, resp2 := c.submit(JobSpec{Kernel: "cg", Mode: "cohesion", Clusters: 2, Scale: 1, Seed: 42, Verify: true})
	if resp1.StatusCode != http.StatusAccepted || resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submissions: %d, %d", resp1.StatusCode, resp2.StatusCode)
	}

	// Let the running job get well under way, then SIGKILL:
	// no drain, no goodbye, exactly what a OOM-kill or power cut does.
	time.Sleep(1 * time.Second)
	if err := cmdA.Process.Kill(); err != nil {
		t.Fatalf("killing helper: %v", err)
	}
	_ = cmdA.Wait()

	// Phase B: restart on the same state dir; everything unfinished must
	// complete with bit-identical results.
	cmdB, base := startCrashHelper(t, stateDir)
	defer func() {
		_ = cmdB.Process.Kill()
		_ = cmdB.Wait()
	}()
	c = &serveTestClient{t: t, base: base}

	// The finished job's record survived untouched.
	rb, code := c.result(doneID)
	if code != http.StatusOK || rb.State != "done" {
		t.Fatalf("pre-crash done job after restart: code %d, %+v", code, rb)
	}
	if rb.Outcome == nil || preCrash.Outcome == nil || rb.Outcome.MemFingerprint != preCrash.Outcome.MemFingerprint {
		t.Fatalf("pre-crash outcome changed across restart: %+v vs %+v", rb.Outcome, preCrash.Outcome)
	}

	// The interrupted and queued jobs run to completion.
	for _, chk := range []struct{ id, want, what string }{
		{longID, refLong, "interrupted dmm/Cohesion"},
		{q1, golden["stencil/HWcc"], "queued stencil/HWcc"},
		{q2, golden["cg/Cohesion"], "queued cg/Cohesion"},
	} {
		if st := c.waitTerminal(chk.id, 240*time.Second); st != "done" {
			rb, _ := c.result(chk.id)
			t.Fatalf("%s after restart: state %s, error %q", chk.what, st, rb.Error)
		}
		rb, _ := c.result(chk.id)
		if rb.Outcome == nil || rb.Outcome.MemFingerprint != chk.want {
			t.Errorf("%s: fingerprint after crash-restart = %+v, want %s (bit-identical to uninterrupted)",
				chk.what, rb.Outcome, chk.want)
		}
		if rb.Outcome != nil && rb.Outcome.Partial {
			t.Errorf("%s: resumed job reported a partial outcome", chk.what)
		}
	}
}
