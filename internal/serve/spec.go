// Package serve is the job-service layer: an HTTP/JSON front door over
// the simulator shaped like an inference-serving stack — admission
// control with a bounded queue (429 + Retry-After under saturation),
// per-job budgets clamped by server-wide ceilings (runctl), crash-safe
// job records (snapshot) so a SIGKILL'd server reruns its queued and
// running jobs on restart — bit-identically, since runs are
// deterministic — and Prometheus-style text metrics.
//
// The package deliberately does not know how to build a machine: the
// root cohesion package implements Engine (it owns RunConfig) and
// injects it, which also lets the unit tests
// drive every admission/cancel/drain path with a fake engine and no
// simulation at all.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"cohesion/internal/config"
	"cohesion/internal/kernels"
)

// MaxSpecBytes bounds a submitted job-spec body.
const MaxSpecBytes = 1 << 20

// Spec limits enforced at validation; generous, but they keep a typo'd
// spec from asking for a machine the process cannot build.
const (
	MaxClusters = 128 // the paper's Table 3 machine
	MaxScale    = 64
)

// JobSpec is the wire form of one job: which kernel on which machine,
// with optional per-job budgets. The zero values of the optional fields
// select the server defaults (2 clusters, scale 1).
type JobSpec struct {
	Kernel   string `json:"kernel"`
	Mode     string `json:"mode"`               // swcc | hwcc | cohesion
	Clusters int    `json:"clusters,omitempty"` // 0 = 2
	Scale    int    `json:"scale,omitempty"`    // 0 = 1
	Seed     int64  `json:"seed,omitempty"`
	Workers  int    `json:"workers,omitempty"` // 0 = 4 per cluster
	Verify   bool   `json:"verify,omitempty"`

	// MaxEvents and MaxWallMS are per-job budgets (0 = none), clamped by
	// the server's ceilings. They are int64 on the wire so a negative
	// value is rejected with a named field instead of wrapping.
	MaxEvents int64 `json:"max_events,omitempty"`
	MaxWallMS int64 `json:"max_wall_ms,omitempty"`
}

// FieldError names one invalid field of a submitted spec.
type FieldError struct {
	Field string `json:"field"`
	Msg   string `json:"msg"`
}

// SpecError aggregates every invalid field of a spec, mirroring the
// named-field semantics of stress.Repro.Validate: the client learns all
// problems in one round trip, each anchored to the field that caused it.
type SpecError struct {
	Fields []FieldError `json:"fields"`
}

func (e *SpecError) Error() string {
	parts := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		parts[i] = f.Field + ": " + f.Msg
	}
	return "invalid job spec: " + strings.Join(parts, "; ")
}

// specErrorf builds a single-field SpecError.
func specErrorf(field, format string, args ...any) *SpecError {
	return &SpecError{Fields: []FieldError{{Field: field, Msg: fmt.Sprintf(format, args...)}}}
}

// ParseMode maps a wire mode string to the machine Mode.
func ParseMode(s string) (config.Mode, bool) {
	switch strings.ToLower(s) {
	case "swcc":
		return config.SWcc, true
	case "hwcc":
		return config.HWcc, true
	case "cohesion":
		return config.Cohesion, true
	}
	return 0, false
}

// Normalized returns the spec with defaulted fields made explicit, so
// persisted records and run configs agree on the actual parameters.
func (s JobSpec) Normalized() JobSpec {
	if s.Clusters == 0 {
		s.Clusters = 2
	}
	if s.Scale == 0 {
		s.Scale = 1
	}
	s.Mode = strings.ToLower(s.Mode)
	return s
}

// Validate checks every field, collecting one FieldError per problem.
// A spec that passes cannot send machine construction into a config
// error: the 400 happens at admission, not inside a worker.
func (s JobSpec) Validate() error {
	var e SpecError
	add := func(field, format string, args ...any) {
		e.Fields = append(e.Fields, FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}
	names := kernels.Names()
	known := false
	for _, n := range names {
		if n == s.Kernel {
			known = true
			break
		}
	}
	if s.Kernel == "" {
		add("kernel", "required; one of %s", strings.Join(names, ", "))
	} else if !known {
		add("kernel", "unknown kernel %q; one of %s", s.Kernel, strings.Join(names, ", "))
	}
	if _, ok := ParseMode(s.Mode); !ok {
		if s.Mode == "" {
			add("mode", "required; one of swcc, hwcc, cohesion")
		} else {
			add("mode", "unknown mode %q; one of swcc, hwcc, cohesion", s.Mode)
		}
	}
	if s.Clusters < 0 || s.Clusters > MaxClusters {
		add("clusters", "%d outside [0, %d] (0 = default)", s.Clusters, MaxClusters)
	}
	if s.Scale < 0 || s.Scale > MaxScale {
		add("scale", "%d outside [0, %d] (0 = default)", s.Scale, MaxScale)
	}
	if s.Workers < 0 {
		add("workers", "%d is negative", s.Workers)
	} else if s.Clusters >= 0 && s.Clusters <= MaxClusters {
		if cores := config.Scaled(s.Normalized().Clusters).Cores(); s.Workers > cores {
			add("workers", "%d exceeds the machine's %d cores", s.Workers, cores)
		}
	}
	if s.MaxEvents < 0 {
		add("max_events", "%d is negative", s.MaxEvents)
	}
	if s.MaxWallMS < 0 {
		add("max_wall_ms", "%d is negative", s.MaxWallMS)
	}
	if len(e.Fields) == 0 {
		return nil
	}
	return &e
}

// DecodeSpec reads and validates one job spec from an HTTP body. Every
// failure — malformed JSON, an unknown field, out-of-range values —
// comes back as a *SpecError naming the offending field ("body" for
// syntax-level problems), so the handler can return a structured 400.
func DecodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(io.LimitReader(r, MaxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, decodeError(err)
	}
	// Trailing garbage after the object is a malformed body too.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return JobSpec{}, specErrorf("body", "trailing data after the job object")
	}
	if err := spec.Validate(); err != nil {
		return JobSpec{}, err
	}
	return spec.Normalized(), nil
}

// decodeError converts a json.Decoder failure into a field-named
// *SpecError.
func decodeError(err error) *SpecError {
	var ute *json.UnmarshalTypeError
	if errors.As(err, &ute) && ute.Field != "" {
		return specErrorf(ute.Field, "wrong type: got %s, want %s", ute.Value, ute.Type)
	}
	// encoding/json reports unknown fields only via the error text:
	// `json: unknown field "xyz"`.
	if msg := err.Error(); strings.Contains(msg, "unknown field") {
		field := "body"
		if i := strings.IndexByte(msg, '"'); i >= 0 {
			// An empty key ({"": 0}) must still produce a named error.
			if j := strings.IndexByte(msg[i+1:], '"'); j > 0 {
				field = msg[i+1 : i+1+j]
			}
		}
		return specErrorf(field, "unknown field")
	}
	return specErrorf("body", "malformed JSON: %v", err)
}
