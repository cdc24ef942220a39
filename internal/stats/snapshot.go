package stats

import (
	"encoding/json"
	"hash/fnv"

	"cohesion/internal/addr"
	"cohesion/internal/msg"
)

// Snapshot is the serializable image of a Run's cumulative counters —
// everything a sweep checkpoint must persist so a cell served from it
// reports the same statistics as a fresh run. The observability
// attachments (Trace, Sink, Coverage, Metrics) are deliberately
// excluded: they are live instruments, not state.
type Snapshot struct {
	Messages   [msg.NumKinds]uint64 `json:"messages"`
	ProbesSent uint64               `json:"probes_sent"`

	InvIssued uint64 `json:"inv_issued,omitempty"`
	InvUseful uint64 `json:"inv_useful,omitempty"`
	WBIssued  uint64 `json:"wb_issued,omitempty"`
	WBUseful  uint64 `json:"wb_useful,omitempty"`

	TransitionsToSW uint64 `json:"transitions_to_sw,omitempty"`
	TransitionsToHW uint64 `json:"transitions_to_hw,omitempty"`

	DirEvictions  uint64 `json:"dir_evictions,omitempty"`
	DirBroadcasts uint64 `json:"dir_broadcasts,omitempty"`
	OverlapRaces  uint64 `json:"overlap_races,omitempty"`

	FaultDrops  uint64 `json:"fault_drops,omitempty"`
	FaultDups   uint64 `json:"fault_dups,omitempty"`
	FaultDelays uint64 `json:"fault_delays,omitempty"`
	NacksSent   uint64 `json:"nacks_sent,omitempty"`

	L2Retries      uint64 `json:"l2_retries,omitempty"`
	NackRetries    uint64 `json:"nack_retries,omitempty"`
	StaleResponses uint64 `json:"stale_responses,omitempty"`
	DupsDropped    uint64 `json:"dups_dropped,omitempty"`

	ForwardProgress uint64 `json:"forward_progress"`

	DRAMReads  uint64 `json:"dram_reads"`
	DRAMWrites uint64 `json:"dram_writes"`

	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	Events       uint64 `json:"events"`

	NetMessages uint64 `json:"net_messages"`
	NetBytes    uint64 `json:"net_bytes"`

	Occupancy OccupancySnap    `json:"occupancy"`
	Phases    []PhaseMark      `json:"phases,omitempty"`
	Timeline  []TimelineSample `json:"timeline,omitempty"`
}

// OccupancySnap is the serializable form of OccupancySampler.
type OccupancySnap struct {
	Samples  uint64                  `json:"samples"`
	SumTotal uint64                  `json:"sum_total"`
	SumClass [addr.NumClasses]uint64 `json:"sum_class"`
	MaxTotal uint64                  `json:"max_total"`
}

// Snap exports the sampler's accumulated sums.
func (o *OccupancySampler) Snap() OccupancySnap {
	return OccupancySnap{Samples: o.samples, SumTotal: o.sumTotal, SumClass: o.sumClass, MaxTotal: o.maxTotal}
}

// Sampler reconstructs a sampler from a snapshot.
func (s OccupancySnap) Sampler() OccupancySampler {
	return OccupancySampler{samples: s.Samples, sumTotal: s.SumTotal, sumClass: s.SumClass, maxTotal: s.MaxTotal}
}

// Snapshot exports every cumulative counter.
func (r *Run) Snapshot() Snapshot {
	return Snapshot{
		Messages:        r.Messages,
		ProbesSent:      r.ProbesSent,
		InvIssued:       r.InvIssued,
		InvUseful:       r.InvUseful,
		WBIssued:        r.WBIssued,
		WBUseful:        r.WBUseful,
		TransitionsToSW: r.TransitionsToSW,
		TransitionsToHW: r.TransitionsToHW,
		DirEvictions:    r.DirEvictions,
		DirBroadcasts:   r.DirBroadcasts,
		OverlapRaces:    r.OverlapRaces,
		FaultDrops:      r.FaultDrops,
		FaultDups:       r.FaultDups,
		FaultDelays:     r.FaultDelays,
		NacksSent:       r.NacksSent,
		L2Retries:       r.L2Retries,
		NackRetries:     r.NackRetries,
		StaleResponses:  r.StaleResponses,
		DupsDropped:     r.DupsDropped,
		ForwardProgress: r.ForwardProgress,
		DRAMReads:       r.DRAMReads,
		DRAMWrites:      r.DRAMWrites,
		Instructions:    r.Instructions,
		Cycles:          r.Cycles,
		Events:          r.Events,
		NetMessages:     r.NetMessages,
		NetBytes:        r.NetBytes,
		Occupancy:       r.Occupancy.Snap(),
		Phases:          append([]PhaseMark(nil), r.PhaseMarks...),
		Timeline:        append([]TimelineSample(nil), r.Timeline...),
	}
}

// ToRun reconstructs a Run holding the snapshot's counters. The caller
// re-attaches any live observability instruments afterwards.
func (s Snapshot) ToRun() Run {
	return Run{
		Messages:        s.Messages,
		ProbesSent:      s.ProbesSent,
		InvIssued:       s.InvIssued,
		InvUseful:       s.InvUseful,
		WBIssued:        s.WBIssued,
		WBUseful:        s.WBUseful,
		TransitionsToSW: s.TransitionsToSW,
		TransitionsToHW: s.TransitionsToHW,
		DirEvictions:    s.DirEvictions,
		DirBroadcasts:   s.DirBroadcasts,
		OverlapRaces:    s.OverlapRaces,
		FaultDrops:      s.FaultDrops,
		FaultDups:       s.FaultDups,
		FaultDelays:     s.FaultDelays,
		NacksSent:       s.NacksSent,
		L2Retries:       s.L2Retries,
		NackRetries:     s.NackRetries,
		StaleResponses:  s.StaleResponses,
		DupsDropped:     s.DupsDropped,
		ForwardProgress: s.ForwardProgress,
		DRAMReads:       s.DRAMReads,
		DRAMWrites:      s.DRAMWrites,
		Instructions:    s.Instructions,
		Cycles:          s.Cycles,
		Events:          s.Events,
		NetMessages:     s.NetMessages,
		NetBytes:        s.NetBytes,
		Occupancy:       s.Occupancy.Sampler(),
		PhaseMarks:      append([]PhaseMark(nil), s.Phases...),
		Timeline:        append([]TimelineSample(nil), s.Timeline...),
	}
}

// Digest hashes every cumulative counter, giving results and tests a
// cheap equality probe for the stats layer. JSON field order is fixed by
// the Snapshot struct, so the digest is deterministic.
func (r *Run) Digest() uint64 {
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		// Snapshot holds only integers and fixed structs; Marshal cannot
		// fail. Keep a defensive distinct value anyway.
		return ^uint64(0)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
