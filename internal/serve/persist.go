package serve

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"cohesion/internal/snapshot"
)

// jobRecord is the persisted form of a Job: everything the next process
// needs to report the job's history and decide whether to re-run it.
// Records ride the snapshot envelope (KindJob), so every write is
// atomic (temp + fsync + rename) and every read is checksummed — a
// SIGKILL mid-write leaves the previous revision readable.
type jobRecord struct {
	ID          string   `json:"id"`
	Spec        JobSpec  `json:"spec"`
	State       State    `json:"state"`
	Resumed     bool     `json:"resumed,omitempty"`
	Outcome     *Outcome `json:"outcome,omitempty"`
	Error       string   `json:"error,omitempty"`
	SubmittedMS int64    `json:"submitted_ms"`
	StartedMS   int64    `json:"started_ms,omitempty"`
	EndedMS     int64    `json:"ended_ms,omitempty"`
	Revision    uint64   `json:"revision"`
}

// recordOf snapshots a job for persistence, bumping its revision (the
// envelope Seq, so LoadRecover adopts the newest of a torn pair).
// Callers hold the server mutex.
func recordOf(j *Job) jobRecord {
	j.Revision++
	return jobRecord{
		ID:          j.ID,
		Spec:        j.Spec,
		State:       j.State,
		Resumed:     j.Resumed,
		Outcome:     j.Outcome,
		Error:       j.Error,
		SubmittedMS: j.SubmittedMS,
		StartedMS:   j.StartedMS,
		EndedMS:     j.EndedMS,
		Revision:    j.Revision,
	}
}

// job rebuilds the in-memory form.
func (r jobRecord) job() *Job {
	return &Job{
		ID:          r.ID,
		Spec:        r.Spec,
		State:       r.State,
		Resumed:     r.Resumed,
		Outcome:     r.Outcome,
		Error:       r.Error,
		Revision:    r.Revision,
		SubmittedMS: r.SubmittedMS,
		StartedMS:   r.StartedMS,
		EndedMS:     r.EndedMS,
	}
}

// saveRecord atomically persists one job record.
func saveRecord(stateDir string, rec jobRecord) error {
	return snapshot.WriteAtomic(recordPath(stateDir, rec.ID), snapshot.KindJob, rec.Revision, rec)
}

// removeRecord deletes a job record (used only for jobs that were never
// admitted, e.g. a 429 after the speculative persist).
func removeRecord(stateDir, id string) error {
	path := recordPath(stateDir, id)
	err := os.Remove(path)
	if rerr := os.Remove(snapshot.TmpPath(path)); err == nil {
		err = rerr
	}
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

// loadAllRecords scans the jobs directory, recovering each record from
// its newest valid file (main or .tmp). A record that is torn in both
// places is reported, not silently dropped: job history must not vanish
// without a trace.
func loadAllRecords(stateDir string) ([]jobRecord, error) {
	entries, err := os.ReadDir(jobsDir(stateDir))
	if err != nil {
		return nil, fmt.Errorf("serve: scanning %s: %w", jobsDir(stateDir), err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".job") {
			names = append(names, strings.TrimSuffix(name, ".job"))
		} else if strings.HasSuffix(name, ".job.tmp") {
			// A crash before the first rename leaves only the .tmp.
			names = append(names, strings.TrimSuffix(name, ".job.tmp"))
		}
	}
	sort.Strings(names)
	var recs []jobRecord
	seen := map[string]bool{}
	for _, id := range names {
		if seen[id] {
			continue
		}
		seen[id] = true
		var rec jobRecord
		if _, _, err := snapshot.LoadRecover(recordPath(stateDir, id), snapshot.KindJob, &rec); err != nil {
			return nil, fmt.Errorf("serve: recovering job %s: %w", id, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}
