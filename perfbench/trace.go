package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// job or simulation share Job; Parent is the enclosing span's ID (0 for
// a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    string `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory, and per-layer sums
// (time, heap bytes and heap objects allocated) keyed by span name.
// A nil *tracer records nothing: untraced passes run the same code and
// pay only nil checks.
type tracer struct {
	t0    time.Time
	spans []span
	sum   map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), sum: map[string]float64{}} }

func (t *tracer) begin(name string, parent int, job string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// add accumulates v under key.
func (t *tracer) add(key string, v float64) {
	if t != nil {
		t.sum[key] += v
	}
}

// call runs fn inside a span called name and, when tracing, adds its
// host time, heap bytes and heap objects to the sums under name.
func (t *tracer) call(name string, parent int, job string, fn func()) {
	if t == nil {
		fn()
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := t.begin(name, parent, job)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	runtime.ReadMemStats(&m1)
	t.sum[name+".ns"] += float64(d)
	t.sum[name+".bytes"] += float64(m1.TotalAlloc - m0.TotalAlloc)
	t.sum[name+".allocs"] += float64(m1.Mallocs - m0.Mallocs)
}

// writeSpans writes the spans as one JSON document, with the host facts
// of the run beside them.
func (t *tracer) writeSpans(path string, host hostFacts) error {
	data, err := json.Marshal(struct {
		Host  hostFacts `json:"host"`
		Spans []span    `json:"spans"`
	}{host, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cpuGroups are the package groups self time is attributed to: the
// repository's internal packages by name, the Go runtime, and the
// standard library where this repository spends its time: encoding/json,
// crypto (snapshot checksums), syscall (file and socket I/O), net/http,
// and fmt (protocol trace records are rendered at emit). The rest is
// other.
var cpuGroups = []string{
	"event", "rt", "cluster", "cache", "interconnect", "core", "directory", "region", "dram",
	"linetab", "machine", "kernels", "oracle", "trace", "stats", "stress", "serve", "snapshot", "pool",
	"go_runtime", "encoding_json", "crypto", "syscall", "net_http", "fmt", "other",
}

// groupOf maps a profiled function name such as
// "cohesion/internal/cluster.(*Cluster).step" to its package group.
func groupOf(fn string) string {
	prefix := fn
	if i := strings.IndexAny(prefix, "[("); i >= 0 {
		prefix = prefix[:i]
	}
	slash := strings.LastIndexByte(prefix, '/')
	pkg := prefix
	if i := strings.IndexByte(prefix[slash+1:], '.'); i >= 0 {
		pkg = prefix[:slash+1+i]
	}
	switch {
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "internal/poll" || pkg == "os":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "go_runtime"
	case pkg == "encoding/json":
		return "encoding_json"
	case strings.HasPrefix(pkg, "crypto/"):
		return "crypto"
	case pkg == "net/http":
		return "net_http"
	case pkg == "fmt":
		return "fmt"
	}
	if name, ok := strings.CutPrefix(pkg, "cohesion/internal/"); ok {
		for _, g := range cpuGroups {
			if g == name {
				return g
			}
		}
	}
	return "other"
}

// cpuByGroup decodes a gzipped runtime/pprof CPU profile and returns the
// CPU nanoseconds of self time per package group: each sample's value
// is charged to the innermost function of its leaf frame.
func cpuByGroup(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs        []string
		sampleTypes []int64 // string index of each sample type
		samples     []sample
		locFunc     = map[uint64]uint64{} // location ID -> innermost function ID
		funcName    = map[uint64]int64{}  // function ID -> name string index
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return pbFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbUints(v, b, func(u uint64) { s.locs = append(s.locs, u) })
				case 2:
					return pbUints(v, b, func(u uint64) { s.vals = append(s.vals, int64(u)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if fn != 0 {
						return nil // keep the first (innermost) line
					}
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	vi := -1
	for i, s := range sampleTypes {
		if s >= 0 && int(s) < len(strs) && strs[s] == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := map[string]float64{}
	for _, s := range samples {
		if len(s.locs) == 0 || vi >= len(s.vals) {
			continue
		}
		name := ""
		if idx, ok := funcName[locFunc[s.locs[0]]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		if name != calLoopName {
			out[groupOf(name)] += float64(s.vals[vi])
		}
	}
	return out, nil
}

// pbFields walks the fields of one protobuf message, calling fn with the
// field number and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints handles a repeated integer field written either packed (data
// holds the varints) or unpacked (one value per field).
func pbUints(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		u, n := pbVarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(u)
		data = data[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
