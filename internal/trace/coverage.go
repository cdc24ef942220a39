package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// EdgeID identifies one legal transition of the protocol state machines:
// the MSI directory machine at the home banks (paper Fig 5), the
// Task-Centric SWcc states at the L2 (Fig 6), and the Cohesion
// domain-transition waits (Fig 7), plus the recovery paths of the fault
// layer. The catalog below is the authoritative edge list; PROTOCOL.md §7
// documents each name next to the state-machine walkthrough.
type EdgeID uint8

const (
	// --- MSI directory machine, home side (Fig 5 / PROTOCOL.md §3.2) ---
	EdgeHomeReadMissAllocS  EdgeID = iota // read/ifetch miss allocates a Shared entry
	EdgeHomeWriteMissAllocM               // write miss allocates a Modified entry
	EdgeHomeReadHitShared                 // read hit on S adds a sharer
	EdgeHomeReadRecallsM                  // read hit on M recalls the owner's dirty line
	EdgeHomeWriteRecallsM                 // write hit on M (other owner) recalls then re-grants
	EdgeHomeUpgradeDataless               // S->M upgrade for an existing sharer (no data)
	EdgeHomeUpgradeData                   // S->M upgrade for a non-sharer (data grant)
	EdgeHomeUpgradeInv                    // S->M upgrade invalidates the other sharers
	EdgeHomeEvictMerge                    // dirty eviction merges with no txn in flight
	EdgeHomeEvictDuringTxn                // dirty eviction lands inside an open txn
	EdgeHomeReadRelSharer                 // read release removes one of several sharers
	EdgeHomeReadRelDealloc                // read release empties the sharer set; entry freed
	EdgeHomeRecallWBData                  // ProbeWB returned the owner's dirty data
	EdgeHomeRecallWBAbsent                // ProbeWB found line absent; eviction already merged
	EdgeHomeRecallInv                     // recall invalidates a Shared entry's sharers
	EdgeHomeAtomicRecall                  // atomic/uncached op recalls a tracked line first
	EdgeHomeUncachedAtL3                  // atomic/uncached op served at the L3

	// --- Directory storage (sparse capacity, Dir4B pointers) ---
	EdgeDirCapacityEvict    // full set: LRU victim recalled to make room
	EdgeDirCapacityNack     // every way pinned: requester NACKed (DirNackOnCapacity)
	EdgeDirAllocRetryPinned // every way pinned: silent retry until one drains
	EdgeDirOverflowBcast    // Dir4B fifth sharer sets the broadcast bit
	EdgeDirBroadcastProbe   // probe fan-out used the broadcast (imprecise) set

	// --- Task-Centric SWcc + MSI, L2 side (Fig 6 / PROTOCOL.md §3.3) ---
	EdgeL2FillShared         // GrantShared fill installs a coherent S line
	EdgeL2FillModified       // GrantModified fill installs a coherent M line
	EdgeL2UpgradeDataless    // dataless GrantModified upgrades S in place
	EdgeL2MergeFill          // fill merges fetched words under local dirty words
	EdgeL2FillIncoherent     // GrantIncoherent installs a SWcc line
	EdgeL2StoreHitModified   // store hit on an M line
	EdgeL2StoreHitIncoherent // store hit on an incoherent (SWcc) line
	EdgeL2WriteAllocate      // pure-SWcc store miss write-allocates locally
	EdgeL2EvictDirtyHW       // replacement writes back a dirty M line
	EdgeL2EvictDirtyIncoh    // replacement writes back a dirty incoherent line
	EdgeL2EvictReadRel       // replacement releases a clean S line (read release)
	EdgeL2EvictSilent        // replacement drops a clean incoherent line silently
	EdgeL2FlushDirty         // WB instruction writes dirty words back
	EdgeL2FlushClean         // WB instruction found the line resident but clean
	EdgeL2FlushAbsent        // WB instruction found the line absent (wasted, Fig 3)
	EdgeL2InvDrop            // INV instruction dropped a resident line
	EdgeL2InvAbsent          // INV instruction found the line absent (wasted, Fig 3)
	EdgeL2MSHRStall          // all MSHRs busy: miss stalls until one drains
	EdgeL2ProbeInvClean      // ProbeInv invalidated a clean copy (ack)
	EdgeL2ProbeInvAbsent     // ProbeInv found the line absent
	EdgeL2ProbeWBData        // ProbeWB wrote the resident copy back
	EdgeL2ProbeWBAbsent      // ProbeWB found the line absent (eviction in flight)

	// --- Cohesion domain transitions (Fig 7 / PROTOCOL.md §3.4-3.6) ---
	EdgeCohDomainCoarse    // domain lookup answered by the coarse region table
	EdgeCohDomainFineSW    // fine-table bit read: line is SWcc
	EdgeCohDomainFineHW    // fine-table bit read: line is HWcc
	EdgeCohGrantIncoherent // SWcc-domain request granted incoherent
	EdgeCohToSWNoEntry     // HW=>SW with no directory entry (Case 1a)
	EdgeCohToSWInvShared   // HW=>SW invalidates a Shared entry (Case 2a)
	EdgeCohToSWRecallM     // HW=>SW recalls a Modified owner (Case 3a)
	EdgeCohToHWUncached    // SW=>HW capture found the line nowhere (Case 1b)
	EdgeCohToHWClean       // SW=>HW captured clean copies as sharers (Case 2b)
	EdgeCohToHWMerge       // SW=>HW wrote back and merged dirty copies (Case 3b)
	EdgeCohToHWUpgrade     // SW=>HW upgraded a single dirty owner in place (Case 4b)
	EdgeCohToHWOverlap     // SW=>HW found overlapping dirty words (Case 5b race)
	EdgeCohToHWRecallFirst // SW=>HW tore down a racing HW entry pre-broadcast
	EdgeCohWaitsTxn        // transition waited for a request txn on the line
	EdgeL2CaptureAbsent    // ProbeCapture: line not present
	EdgeL2CaptureClean     // ProbeCapture: clean copy becomes a hardware sharer
	EdgeL2CaptureDirty     // ProbeCapture: dirty words reported for phase two
	EdgeL2CaptureUpgrade   // ProbeUpgradeOwner applied (incoherent -> M)

	// --- Fault injection + protocol recovery ---
	EdgeRecNetDrop      // a retryable request was dropped in flight
	EdgeRecNetDup       // a retryable request was delivered twice
	EdgeRecHomeDupDrop  // home dedup discarded a duplicate delivery
	EdgeRecNackInjected // home sent an injected allocation NACK
	EdgeRecNackBackoff  // L2 backed off and retransmitted after a NACK
	EdgeRecTimeoutRetry // L2 retransmitted after a response timeout

	NumEdges // count; not an edge
)

// edgeNames maps every EdgeID to its stable catalog name, grouped by a
// dotted prefix: msi.* (directory MSI), dir.* (directory storage), l2.*
// (L2-side SWcc/MSI/capture), coh.* (Cohesion transitions), rec.*
// (fault recovery). These names appear in PROTOCOL.md §7 and in
// coverage reports; renaming one is a documentation change too.
var edgeNames = [NumEdges]string{
	EdgeHomeReadMissAllocS:  "msi.read_miss_alloc_s",
	EdgeHomeWriteMissAllocM: "msi.write_miss_alloc_m",
	EdgeHomeReadHitShared:   "msi.read_hit_add_sharer",
	EdgeHomeReadRecallsM:    "msi.read_recalls_modified",
	EdgeHomeWriteRecallsM:   "msi.write_recalls_modified",
	EdgeHomeUpgradeDataless: "msi.upgrade_sharer_dataless",
	EdgeHomeUpgradeData:     "msi.upgrade_nonsharer_data",
	EdgeHomeUpgradeInv:      "msi.upgrade_invalidates_sharers",
	EdgeHomeEvictMerge:      "msi.evict_merge",
	EdgeHomeEvictDuringTxn:  "msi.evict_during_txn",
	EdgeHomeReadRelSharer:   "msi.readrel_remove_sharer",
	EdgeHomeReadRelDealloc:  "msi.readrel_dealloc",
	EdgeHomeRecallWBData:    "msi.recall_wb_data",
	EdgeHomeRecallWBAbsent:  "msi.recall_wb_absorbed",
	EdgeHomeRecallInv:       "msi.recall_inv_sharers",
	EdgeHomeAtomicRecall:    "msi.atomic_recalls_tracked",
	EdgeHomeUncachedAtL3:    "msi.uncached_at_l3",

	EdgeDirCapacityEvict:    "dir.capacity_evict",
	EdgeDirCapacityNack:     "dir.capacity_nack",
	EdgeDirAllocRetryPinned: "dir.alloc_retry_pinned",
	EdgeDirOverflowBcast:    "dir.limited_overflow_broadcast",
	EdgeDirBroadcastProbe:   "dir.broadcast_probe",

	EdgeL2FillShared:         "l2.fill_shared",
	EdgeL2FillModified:       "l2.fill_modified",
	EdgeL2UpgradeDataless:    "l2.upgrade_dataless",
	EdgeL2MergeFill:          "l2.partial_merge_fill",
	EdgeL2FillIncoherent:     "l2.fill_incoherent",
	EdgeL2StoreHitModified:   "l2.store_hit_modified",
	EdgeL2StoreHitIncoherent: "l2.store_hit_incoherent",
	EdgeL2WriteAllocate:      "l2.swcc_write_allocate",
	EdgeL2EvictDirtyHW:       "l2.evict_dirty_hw",
	EdgeL2EvictDirtyIncoh:    "l2.evict_dirty_incoherent",
	EdgeL2EvictReadRel:       "l2.evict_clean_readrel",
	EdgeL2EvictSilent:        "l2.evict_silent",
	EdgeL2FlushDirty:         "l2.flush_dirty",
	EdgeL2FlushClean:         "l2.flush_clean",
	EdgeL2FlushAbsent:        "l2.flush_absent",
	EdgeL2InvDrop:            "l2.inv_drop",
	EdgeL2InvAbsent:          "l2.inv_absent",
	EdgeL2MSHRStall:          "l2.mshr_stall",
	EdgeL2ProbeInvClean:      "l2.probe_inv_clean",
	EdgeL2ProbeInvAbsent:     "l2.probe_inv_absent",
	EdgeL2ProbeWBData:        "l2.probe_wb_data",
	EdgeL2ProbeWBAbsent:      "l2.probe_wb_absent",

	EdgeCohDomainCoarse:    "coh.domain_coarse",
	EdgeCohDomainFineSW:    "coh.domain_fine_swcc",
	EdgeCohDomainFineHW:    "coh.domain_fine_hwcc",
	EdgeCohGrantIncoherent: "coh.grant_incoherent",
	EdgeCohToSWNoEntry:     "coh.tosw_no_entry",
	EdgeCohToSWInvShared:   "coh.tosw_inv_shared",
	EdgeCohToSWRecallM:     "coh.tosw_recall_modified",
	EdgeCohToHWUncached:    "coh.tohw_uncached",
	EdgeCohToHWClean:       "coh.tohw_clean_sharers",
	EdgeCohToHWMerge:       "coh.tohw_writeback_merge",
	EdgeCohToHWUpgrade:     "coh.tohw_upgrade_owner",
	EdgeCohToHWOverlap:     "coh.tohw_overlap_race",
	EdgeCohToHWRecallFirst: "coh.tohw_recall_first",
	EdgeCohWaitsTxn:        "coh.transition_waits_txn",
	EdgeL2CaptureAbsent:    "l2.capture_absent",
	EdgeL2CaptureClean:     "l2.capture_clean",
	EdgeL2CaptureDirty:     "l2.capture_dirty",
	EdgeL2CaptureUpgrade:   "l2.capture_upgrade_owner",

	EdgeRecNetDrop:      "rec.net_drop",
	EdgeRecNetDup:       "rec.net_dup",
	EdgeRecHomeDupDrop:  "rec.home_dup_drop",
	EdgeRecNackInjected: "rec.nack_injected",
	EdgeRecNackBackoff:  "rec.nack_backoff",
	EdgeRecTimeoutRetry: "rec.timeout_retry",
}

// String returns the edge's stable catalog name.
func (e EdgeID) String() string {
	if int(e) < len(edgeNames) && edgeNames[e] != "" {
		return edgeNames[e]
	}
	return fmt.Sprintf("edge(%d)", uint8(e))
}

// EdgeCount is the number of registered protocol edges.
const EdgeCount = int(NumEdges)

// EdgeNames lists every registered edge name in catalog order.
func EdgeNames() []string {
	out := make([]string, NumEdges)
	for i := range out {
		out[i] = EdgeID(i).String()
	}
	return out
}

// Coverage counts how often each protocol edge fired. Marks are atomic so
// one Coverage can aggregate across simulations running on parallel test
// or fuzz workers; everything else is read-side only.
type Coverage struct {
	counts [NumEdges]atomic.Uint64
}

// NewCoverage returns an empty tracker.
func NewCoverage() *Coverage { return &Coverage{} }

// Mark records one firing of edge e.
func (c *Coverage) Mark(e EdgeID) { c.counts[e].Add(1) }

// Count reports how often edge e fired.
func (c *Coverage) Count(e EdgeID) uint64 { return c.counts[e].Load() }

// Covered reports how many registered edges fired at least once.
func (c *Coverage) Covered() int {
	n := 0
	for i := range c.counts {
		if c.counts[i].Load() > 0 {
			n++
		}
	}
	return n
}

// Total reports the number of registered edges.
func (c *Coverage) Total() int { return EdgeCount }

// Uncovered lists the names of edges that never fired, sorted.
func (c *Coverage) Uncovered() []string {
	var out []string
	for i := range c.counts {
		if c.counts[i].Load() == 0 {
			out = append(out, EdgeID(i).String())
		}
	}
	sort.Strings(out)
	return out
}

// CountsByName exports every fired edge's count keyed by its stable
// catalog name. Fuzz checkpoints persist this map (names survive edge-ID
// renumbering across versions), and determinism tests compare it to
// prove repeat runs marked the same edges.
func (c *Coverage) CountsByName() map[string]uint64 {
	out := make(map[string]uint64)
	for i := range c.counts {
		if n := c.counts[i].Load(); n > 0 {
			out[EdgeID(i).String()] = n
		}
	}
	return out
}

// MergeNamed adds previously exported counts back into c. Names no
// longer in the catalog are returned rather than silently dropped.
func (c *Coverage) MergeNamed(counts map[string]uint64) (unknown []string) {
	byName := make(map[string]int, EdgeCount)
	for i := 0; i < EdgeCount; i++ {
		byName[EdgeID(i).String()] = i
	}
	for name, n := range counts {
		i, ok := byName[name]
		if !ok {
			unknown = append(unknown, name)
			continue
		}
		c.counts[i].Add(n)
	}
	sort.Strings(unknown)
	return unknown
}

// Merge adds another tracker's counts into c.
func (c *Coverage) Merge(o *Coverage) {
	for i := range c.counts {
		if n := o.counts[i].Load(); n > 0 {
			c.counts[i].Add(n)
		}
	}
}

// Report renders the per-edge counts grouped by prefix, uncovered edges
// marked, with a covered/total summary line first.
func (c *Coverage) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol edges covered: %d/%d\n", c.Covered(), c.Total())
	group := ""
	for i := 0; i < EdgeCount; i++ {
		name := EdgeID(i).String()
		g, _, _ := strings.Cut(name, ".")
		if g != group {
			group = g
			fmt.Fprintf(&b, "[%s]\n", group)
		}
		n := c.counts[i].Load()
		mark := ""
		if n == 0 {
			mark = "  <-- UNCOVERED"
		}
		fmt.Fprintf(&b, "  %-34s %10d%s\n", name, n, mark)
	}
	return b.String()
}
