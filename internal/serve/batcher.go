package serve

import (
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Batcher is the batching core every serving loop shares: the single-tenant
// Server at any PipelineDepth and each multi-tenant mtserve tenant. It owns
// one machine's admission queue and makes every batching decision — when a
// batch is due, which queued requests are shed, what a formed batch
// contains — and classifies each executed request as served or
// deadline-missed, recording outcomes and the "serve"-track telemetry
// (shed and deadline-miss instants, batch spans, queue_depth samples).
//
// The loops keep what differs between them: how the clock advances, when a
// batch is executed, and on which machine. A caller Forms a batch, executes
// it (Machine.Run, or a stream submission that retires later), and Completes
// it with its start and completion times. Several formed batches may be in
// flight; Complete retires them in formation order.
type Batcher struct {
	// MaxBatch caps a formed batch, in samples.
	MaxBatch int
	// MaxWaitCycles is the head request's queue-wait deadline: a partial
	// batch fires once its head has waited this long.
	MaxWaitCycles int64
	// SLOCycles is the per-request completion deadline from arrival (0: no
	// deadline). Requests past it are shed at formation, or counted missed
	// when their batch completes late.
	SLOCycles int64
	// QueueCapSamples bounds the queue; arrivals beyond it are shed.
	QueueCapSamples int

	setup *core.Setup
	rep   *Report
	rec   *telemetry.Recorder
	track telemetry.TrackID

	queue    []Request
	queued   int      // samples in queue
	inflight []formed // formed, not yet completed, in formation order
}

// formed is the request composition of one formed batch, kept until the
// batch completes.
type formed struct {
	reqs     []Request
	samples  int
	units    int
	headWait int64
}

// NewBatcher binds a batching core to a brought-up machine. It takes the
// policy from cfg's MaxBatch, MaxWaitCycles, SLOCycles and QueueCapSamples,
// defaulted as New defaults them, records every request outcome into rep,
// and traces onto the "serve" track of the machine's recorder.
func NewBatcher(setup *core.Setup, rep *Report, cfg Config) *Batcher {
	cfg.Defaults()
	return &Batcher{
		MaxBatch:        cfg.MaxBatch,
		MaxWaitCycles:   cfg.MaxWaitCycles,
		SLOCycles:       cfg.SLOCycles,
		QueueCapSamples: cfg.QueueCapSamples,
		setup:           setup,
		rep:             rep,
		rec:             setup.Rec,
		track:           setup.Rec.Track("serve"),
	}
}

// Len returns the number of queued requests.
func (b *Batcher) Len() int { return len(b.queue) }

// QueuedSamples returns the queued samples.
func (b *Batcher) QueuedSamples() int { return b.queued }

// Head returns the oldest queued request (the queue must be non-empty).
func (b *Batcher) Head() Request { return b.queue[0] }

// WaitDeadline is when the head request's queue wait expires and a partial
// batch fires (the queue must be non-empty).
func (b *Batcher) WaitDeadline() int64 { return b.queue[0].Arrival + b.MaxWaitCycles }

// Ready reports whether a batch is due at now: the queue holds a full batch,
// the head is a replayed request (its own batch), or the head's wait deadline
// has passed. False on an empty queue.
func (b *Batcher) Ready(now int64) bool {
	if len(b.queue) == 0 {
		return false
	}
	return b.queued >= b.MaxBatch || b.queue[0].Routing != nil || now >= b.WaitDeadline()
}

// Admit queues an arrived request, or sheds it when the queue cannot hold
// it. A request without a sample count is one sample, or its unit count's
// worth for a replayed request.
func (b *Batcher) Admit(req Request) {
	if req.Samples <= 0 {
		req.Samples = 1
		if req.Routing != nil {
			if ups := b.setup.W.Graph.UnitsPerSample; ups > 0 && req.Units > ups {
				req.Samples = req.Units / ups
			}
		}
	}
	now := int64(b.setup.M.Now())
	if b.queued+req.Samples > b.QueueCapSamples {
		b.rep.record(RequestResult{ID: req.ID, Arrival: req.Arrival, Outcome: Shed})
		if b.rec.Enabled() {
			b.rec.Instant(b.track, "serve", "shed", now,
				telemetry.I("request", int64(req.ID)), telemetry.S("reason", "queue-full"))
		}
		return
	}
	b.queue = append(b.queue, req)
	b.queued += req.Samples
	if b.rec.Enabled() {
		b.rec.Counter(b.track, "serve", "queue_depth", now, int64(b.queued))
	}
}

// Form cuts one batch from the queue head at now. Queued requests whose SLO
// has already expired are shed first: executing them cannot meet the
// deadline, and they would drag fresh requests past theirs. A replayed
// request runs as its own batch with its recorded routing and density;
// otherwise requests join in arrival order up to the size cap, and the
// routing and density are drawn from the workload's generator for the
// batch's actual size. ok is false when shedding emptied the queue.
func (b *Batcher) Form(now int64) (batch workload.Batch, ok bool) {
	for len(b.queue) > 0 && b.SLOCycles > 0 && b.queue[0].Arrival+b.SLOCycles <= now {
		req := b.pop()
		b.rep.record(RequestResult{ID: req.ID, Arrival: req.Arrival, Outcome: Shed})
		if b.rec.Enabled() {
			b.rec.Instant(b.track, "serve", "shed", now,
				telemetry.I("request", int64(req.ID)), telemetry.S("reason", "slo-expired"))
		}
	}
	if len(b.queue) == 0 {
		return workload.Batch{}, false
	}
	f := formed{headWait: now - b.queue[0].Arrival}
	batch.Index = b.rep.Batches + len(b.inflight)
	if b.queue[0].Routing != nil {
		req := b.pop()
		f.reqs, f.samples = []Request{req}, req.Samples
		batch.Units, batch.Routing, batch.Density = req.Units, req.Routing, req.Density
	} else {
		for len(b.queue) > 0 && b.queue[0].Routing == nil {
			if len(f.reqs) > 0 && f.samples+b.queue[0].Samples > b.MaxBatch {
				break
			}
			req := b.pop()
			f.samples += req.Samples
			f.reqs = append(f.reqs, req)
		}
		w := b.setup.W
		batch.Units = f.samples * w.Graph.UnitsPerSample
		batch.Routing = w.Gen.Next(b.setup.Src, batch.Units)
		if dg, ok := w.Gen.(workload.DensityGen); ok {
			batch.Density = dg.NextDensity(b.setup.Src)
		}
	}
	f.units = batch.Units
	b.inflight = append(b.inflight, f)
	return batch, true
}

// Complete retires the oldest formed batch, which executed from start to
// done: each request is served, or deadline-missed past its SLO. Returns the
// batch's sample count.
func (b *Batcher) Complete(start, done int64) int {
	f := b.inflight[0]
	b.inflight = b.inflight[1:]
	for _, req := range f.reqs {
		out := Served
		if b.SLOCycles > 0 && done > req.Arrival+b.SLOCycles {
			out = DeadlineMissed
			if b.rec.Enabled() {
				b.rec.Instant(b.track, "serve", "deadline-miss", done,
					telemetry.I("request", int64(req.ID)),
					telemetry.I("late", done-req.Arrival-b.SLOCycles))
			}
		}
		b.rep.record(RequestResult{ID: req.ID, Arrival: req.Arrival, Done: done, Outcome: out})
	}
	if b.rec.Enabled() {
		// The batch's serve-side span, with the head request's queue wait
		// (the dual policy's second trigger) and the batch's composition as
		// args. The machine records the matching execution span on its own
		// batches track.
		b.rec.Span(b.track, "serve", "batch", start, done,
			telemetry.I("requests", int64(len(f.reqs))),
			telemetry.I("units", int64(f.units)),
			telemetry.I("queue_wait", f.headWait))
		b.rec.Counter(b.track, "serve", "queue_depth", done, int64(b.queued))
	}
	b.rep.Batches++
	return f.samples
}

// Evict empties the queue without recording outcomes and returns the
// requests in arrival order.
func (b *Batcher) Evict() []Request {
	out := b.queue
	b.queue, b.queued = nil, 0
	if b.rec.Enabled() {
		b.rec.Counter(b.track, "serve", "queue_depth", int64(b.setup.M.Now()), 0)
	}
	return out
}

func (b *Batcher) pop() Request {
	req := b.queue[0]
	b.queue = b.queue[1:]
	b.queued -= req.Samples
	return req
}
