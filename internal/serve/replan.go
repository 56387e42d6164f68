package serve

import (
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/plancache"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Replanner is the re-planning core every serving loop shares: the
// single-tenant Server (drift and fault re-plans) and each multi-tenant
// mtserve tenant (partition moves, fault re-plans, time-slice context
// switches). It owns everything between "a re-plan is due" and "the new plan
// is loaded" on one machine: the plan cache, the cache-or-solve step with its
// host-solve charge, the "plan-cache" trace instant, and the plan swap with
// its reconfiguration accounting. Plan-cache outcomes, host-solve and
// reconfiguration cycles tally into the bound Report.
//
// The callers keep what differs between them: when a re-plan is due, which
// hardware config it targets, and what happens after the swap (the Server
// ages its profiling window and rebases its drift reference; a tenant's
// fault response does neither).
type Replanner struct {
	setup      *core.Setup
	cache      *plancache.Cache // nil with the plan cache disabled
	origin     string
	gate       func()
	hostCycles int64
	rep        *Report
	rec        *telemetry.Recorder
}

// NewReplanner binds a re-planning core to a brought-up machine and the
// plan-cache fields of cfg, tallying into rep. scope is the hardware config
// the machine serves at when healthy: cfg.RC.HW for a server, the partition
// mask and HBM share for a tenant. The cache (cfg.SharedPlanCache, or a
// private one when cfg.PlanCache is set) is seeded at scope — with the
// bring-up plan when scope is the bring-up config cfg.RC.HW, otherwise with
// one solve at scope — and, with cfg.PlanCacheAOT, precomputed over the
// profile lattice and the fault schedule's windows applied to scope.
func NewReplanner(setup *core.Setup, rep *Report, cfg Config, scope hw.Config) *Replanner {
	r := &Replanner{
		setup:      setup,
		cache:      cfg.SharedPlanCache,
		origin:     cfg.PlanCacheOrigin,
		gate:       cfg.PlanCacheGate,
		hostCycles: cfg.HostReschedCycles,
		rep:        rep,
		rec:        setup.Rec,
	}
	if r.cache == nil && !cfg.PlanCache {
		return r
	}
	g, prof := setup.W.Graph, setup.M.Profiler()
	if r.cache == nil {
		r.cache = plancache.New(plancache.NewKeyer(g, 0), plancache.Config{
			Nearest: cfg.PlanCacheNearest,
			MaxDist: cfg.PlanCacheMaxDist,
		})
	}
	// The profiler still holds exactly the warmup state the bring-up plan was
	// solved from, so the seed's fingerprint is the one a fresh solve of the
	// same state would key. A scope other than the bring-up config (a tenant
	// running HBM-derated by its bandwidth share) gets an honest solve instead:
	// every runtime re-plan keys on the scope, so an entry stored under the
	// bring-up config would never be matchable.
	if scope == cfg.RC.HW {
		r.cache.PutFor(r.origin, scope, g, setup.Policy, prof, setup.Plan)
	} else if plan, err := r.cache.Solve(scope, g, setup.Policy, prof); err == nil {
		r.cache.PutFor(r.origin, scope, g, setup.Policy, prof, plan)
	}
	if cfg.PlanCacheAOT {
		r.cache.Precompute(scope, g, setup.Policy, prof, plancache.AOTConfig{
			BatchUnits:     cfg.RC.Batch * g.UnitsPerSample,
			Faults:         cfg.Faults,
			SingleTileLoss: cfg.PlanCacheAOTSingleTile,
		})
	}
	return r
}

// Replan computes (or looks up) a plan for target from the live profile and
// swaps it in. With the plan cache enabled the solve becomes a lookup: hits
// dispatch the stored plan, misses solve fresh and store the result. Every
// solve — a cache miss, or any re-plan with the cache off — first idles the
// machine for the configured host-solve cycles; hits skip the charge, the
// cached plan being ready the moment the re-plan is due. The lookup is traced
// as a "plan-cache" instant on the caller's track. The machine must have no
// batch in flight. Returns the swap's reconfiguration cycles.
func (r *Replanner) Replan(target hw.Config, track telemetry.TrackID, trackName string) (int64, error) {
	m := r.setup.M
	g := r.setup.W.Graph
	var plan *sched.Plan
	kind := plancache.Miss
	var err error
	if r.cache != nil {
		if r.gate != nil {
			r.gate()
		}
		plan, kind, err = r.cache.GetOrScheduleFor(r.origin, target, g, r.setup.Policy, m.Profiler())
	} else {
		plan, err = sched.Schedule(target, g, r.setup.Policy, m.Profiler())
	}
	if err != nil {
		return 0, err
	}
	switch kind {
	case plancache.HitExact:
		r.rep.PlanCacheExact++
	case plancache.HitNearest:
		r.rep.PlanCacheNearest++
	default:
		if r.cache != nil {
			r.rep.PlanCacheMisses++
		}
		if r.hostCycles > 0 {
			m.AdvanceTo(m.Now() + sim.Time(r.hostCycles))
			r.rep.HostSolveCycles += r.hostCycles
		}
	}
	if r.rec.Enabled() && r.cache != nil {
		st := r.cache.Stats()
		r.rec.Instant(track, trackName, "plan-cache", int64(m.Now()),
			telemetry.S("result", kind.String()),
			telemetry.I("entries", int64(st.Entries)),
			telemetry.I("hits", st.Hits()), telemetry.I("misses", st.Misses))
	}
	return r.LoadPlan(plan)
}

// LoadPlan swaps plan into the machine — pipeline drain plus kernel-store
// reload, charged to the machine clock — and makes it the setup's current
// plan. Reloading the current plan charges a time-slice context switch.
// Returns the swap's reconfiguration cycles.
func (r *Replanner) LoadPlan(plan *sched.Plan) (int64, error) {
	m := r.setup.M
	before := m.Stats().ReconfigCycles
	if err := m.LoadPlan(plan); err != nil {
		return 0, err
	}
	swap := m.Stats().ReconfigCycles - before
	r.rep.ReconfigCycles += swap
	r.setup.Plan = plan
	return swap, nil
}
