package core

import (
	"time"

	"diversecast/internal/obs"
)

// Allocator instrumentation on the process-wide registry: how long
// DRP and CDS take and how much work CDS does. One observation per
// Allocate/Refine call, so the per-item hot loops stay untouched.
var (
	drpSeconds = obs.Default().Histogram("core_drp_seconds",
		"DRP allocation duration in seconds", 0, 0.05, 100)
	cdsSeconds = obs.Default().Histogram("core_cds_seconds",
		"CDS refinement duration in seconds", 0, 0.05, 100)
	cdsRefinements = obs.Default().Counter("core_cds_refinements_total",
		"CDS refinement runs")
	cdsMoves = obs.Default().Counter("core_cds_moves_total",
		"single-item moves applied across all CDS refinements")
	cdsScans = obs.Default().Counter("core_cds_scans_total",
		"CDS move-selection sweeps (one per iteration, both strategies)")
	cdsCandidatesRecomputed = obs.Default().Counter("core_cds_candidates_recomputed_total",
		"Eq. 4 evaluations of the incremental CDS strategy's exact cell scans: every item toward every other group at table build, then one per member of each refreshed cell's source group")
)

// timeNow is stubbed in tests.
var timeNow = time.Now
