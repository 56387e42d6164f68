package serve

import "repro/internal/workload"

// Batch execution. The serving loop (step, in serve.go) is one loop at every
// PipelineDepth: it admits at arrival times, asks the Batcher when a batch is
// due, and idles through Machine.StepTo. Depth matters only once a batch is
// formed (fire). At depth <= 1 the batch runs to completion through
// Machine.Run, and admission waits for it. Above that it is submitted through
// the machine's streaming API (accel.StreamSubmit), and the loop keeps
// admitting while it executes: batch k+1's admission, formation and drift
// evaluation overlap batch k's compute in virtual time, up to PipelineDepth
// batches in flight at once.
//
// Pipelined serving is a deliberate semantic variant: batch start times, and
// therefore latencies, differ from the blocking run. What it shares with it
// is the batching policy (one Batcher), the determinism guarantee — the same
// configuration and seed produce a byte-identical outcome log, snapshot and
// trace at any GOMAXPROCS — and the session contract (Begin / Enqueue /
// StepTo / Drain / Finish), so a fleet router drives pipelined replicas
// unchanged. Three boundaries force a pipeline drain, mirroring the machine
// invariants: a plan swap (LoadPlan requires a drained pipeline), a
// capability change (faults apply between batches), and session Drain.

// fire forms one batch at the queue head and executes it: to completion
// through Machine.Run, or submitted to the stream window, retiring the oldest
// in-flight batch first when the window is full.
func (s *Server) fire(now int64) error {
	b, ok := s.b.Form(now)
	if !ok {
		return nil
	}
	m := s.setup.M
	if s.cfg.PipelineDepth <= 1 {
		if err := m.Run([]workload.Batch{b}); err != nil {
			return err
		}
		return s.complete(now, int64(m.Now()), true)
	}
	for len(s.inflight) >= s.cfg.PipelineDepth {
		if err := s.retireOldest(true); err != nil {
			return err
		}
	}
	tk, err := m.StreamSubmit(b)
	if err != nil {
		return err
	}
	s.inflight = append(s.inflight, tk)
	return nil
}

// complete records the oldest formed batch's outcomes and — when check is
// set — runs the drift check every CheckEvery batches.
func (s *Server) complete(start, done int64, check bool) error {
	s.b.Complete(start, done)
	s.sinceResched++
	if check && s.cfg.Reschedule && s.rep.Batches%s.cfg.CheckEvery == 0 {
		return s.maybeReschedule()
	}
	return nil
}

// retireOldest waits out the oldest in-flight batch and completes it at its
// completion time. Retirement order is submission order, so the outcome log
// stays deterministic even when a later batch's events resolve first.
func (s *Server) retireOldest(check bool) error {
	tk := s.inflight[0]
	s.inflight = s.inflight[1:]
	done, err := s.setup.M.StreamRetire(tk)
	if err != nil {
		return err
	}
	return s.complete(int64(tk.Start()), int64(done), check)
}

// drainInflight retires every in-flight batch in submission order without
// running drift checks — it is called on the way into a re-plan or a
// capability change (a re-plan is imminent or the hardware is about to
// change, so an intermediate drift decision would be stale) and at session
// drain. final additionally runs the machine's deadlock diagnostic once the
// last ticket resolves.
func (s *Server) drainInflight(final bool) error {
	for len(s.inflight) > 0 {
		if err := s.retireOldest(false); err != nil {
			return err
		}
	}
	if final {
		return s.setup.M.StreamDrain()
	}
	return nil
}
