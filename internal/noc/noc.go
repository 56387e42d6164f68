// Package noc models the accelerator's 2D-torus network-on-chip (Section
// VI-A/VI-C): X-Y dimension-order routing over torus links, per-tile
// injection/ejection bandwidth, and the probe/acknowledge synchronization
// handshake dynamic pipelines need before forwarding data between stages.
package noc

import (
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// NoC is the on-chip network model. Tile groups are addressed by their
// centroid tile in the chip's linear (row-major) enumeration.
type NoC struct {
	env    *sim.Env
	cfg    hw.Config
	inject []*sim.Server // per-tile injection port
	eject  []*sim.Server // per-tile ejection port
	// links holds the unidirectional torus links, indexed 4*from+dir and
	// created lazily as X-Y routed transfers touch them (see links.go); an
	// untouched link is nil.
	links []*sim.Server
	// baseRate is the healthy per-port bandwidth; rate is the current
	// (possibly derated) one, applied to lazily created links too.
	baseRate, rate float64
	// Accounting.
	byteHops  int64
	transfers int64
	probes    int64
	// rec, when enabled, records every payload transfer as a span on track
	// (nil: recording disabled, zero overhead).
	rec   *telemetry.Recorder
	track telemetry.TrackID
}

// New builds the NoC model for cfg.
func New(env *sim.Env, cfg hw.Config) *NoC {
	n := &NoC{env: env, cfg: cfg, baseRate: cfg.NoCBytesPerCycle()}
	n.rate = n.baseRate
	n.links = make([]*sim.Server, 4*cfg.Tiles())
	for i := 0; i < cfg.Tiles(); i++ {
		n.inject = append(n.inject, sim.NewServer(env, n.rate))
		n.eject = append(n.eject, sim.NewServer(env, n.rate))
	}
	return n
}

// SetRecorder attaches a telemetry recorder: every payload transfer is
// recorded as a span (injection-queueing through delivery) with src/dst tile
// and byte-count args. A nil recorder disables recording at zero cost.
func (n *NoC) SetRecorder(rec *telemetry.Recorder) {
	n.rec = rec
	n.track = rec.Track("noc")
}

// Derate scales every port and link to factor times the construction
// bandwidth (fault injection: degraded torus links). factor 1 restores the
// healthy rate; links created after the call inherit the derated rate.
func (n *NoC) Derate(factor float64) {
	if factor <= 0 || factor > 1 {
		factor = 1
	}
	n.rate = n.baseRate * factor
	for i := range n.inject {
		n.inject[i].SetRate(n.rate)
		n.eject[i].SetRate(n.rate)
	}
	for _, l := range n.links {
		if l != nil {
			l.SetRate(n.rate)
		}
	}
}

// coord returns the (x, y) grid position of a linear tile index.
func (n *NoC) coord(tile int) (x, y int) {
	return tile % n.cfg.TilesX, tile / n.cfg.TilesX
}

// Hops returns the X-Y routing hop count between two tiles on the torus
// (wraparound links halve worst-case distances).
func (n *NoC) Hops(from, to int) int {
	fx, fy := n.coord(from)
	tx, ty := n.coord(to)
	return torusDist(fx, tx, n.cfg.TilesX) + torusDist(fy, ty, n.cfg.TilesY)
}

func torusDist(a, b, size int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if wrap := size - d; wrap < d {
		d = wrap
	}
	return d
}

// Centroid returns the representative tile of a region [start, count] in the
// linear enumeration.
func Centroid(region [2]int) int {
	return region[0] + region[1]/2
}

// probeCycles is the latency of one small control packet traversing h hops.
func (n *NoC) probeCycles(h int) sim.Time {
	return sim.Time((h + 1) * n.cfg.RouterHopCycles)
}

// Probe performs the probe/acknowledge handshake of Section VI-C: the source
// queries the destination and waits for the acknowledgment. The extra
// readiness delay (how long until the destination can accept data) is
// applied by the caller via dstReadyAt; Probe accounts only the round trip.
func (n *NoC) Probe(p *sim.Proc, from, to int) {
	n.probes++
	h := n.Hops(from, to)
	p.Wait(2 * n.probeCycles(h))
}

// Transfer moves bytes from the tile region around src to the region around
// dst, blocking the calling process until the payload has fully arrived:
// injection-port serialization, per-hop latency, and ejection-port
// serialization at the destination. ways is the transfer's port-level
// parallelism — a region of k tiles drives k injection ports concurrently,
// so a region-to-region transfer streams through min(srcTiles, dstTiles)
// ports (modelled as a proportional speedup of the representative port).
func (n *NoC) Transfer(p *sim.Proc, src, dst int, bytes int64, ways int) {
	if bytes <= 0 {
		return
	}
	if ways < 1 {
		ways = 1
	}
	h := n.Hops(src, dst)
	n.byteHops += bytes * int64(h)
	n.transfers++
	if src == dst {
		return // same tiles: data stays in the local scratchpad
	}
	start := p.Now()
	share := (bytes + int64(ways) - 1) / int64(ways)
	n.inject[src].Serve(p, share)
	// The payload then crosses every link of its X-Y route (wormhole
	// occupancy with contention on shared links) and drains through the
	// destination's ejection port.
	done := n.reserveLinks(src, dst, share)
	if t := n.eject[dst].Reserve(share); t > done {
		done = t
	}
	if done > p.Now() {
		p.Wait(done - p.Now())
	}
	if n.rec.Enabled() {
		n.rec.Span(n.track, "noc", "xfer", int64(start), int64(p.Now()),
			telemetry.I("src", int64(src)), telemetry.I("dst", int64(dst)),
			telemetry.I("bytes", bytes), telemetry.I("hops", int64(h)))
	}
}

// Multicast sends the same payload from src to several destinations
// (switch operators fan one tensor slice out to several branch heads). The
// injection port serializes each copy; deliveries complete independently and
// Multicast returns when the last one lands.
func (n *NoC) Multicast(p *sim.Proc, src int, dsts []int, bytes int64) {
	if bytes <= 0 || len(dsts) == 0 {
		return
	}
	start := p.Now()
	var last sim.Time
	for _, dst := range dsts {
		if dst == src {
			continue
		}
		h := n.Hops(src, dst)
		n.byteHops += bytes * int64(h)
		n.transfers++
		n.inject[src].Serve(p, bytes)
		arrive := n.eject[dst].Reserve(bytes) + n.probeCycles(h)
		if arrive > last {
			last = arrive
		}
	}
	if last > p.Now() {
		p.Wait(last - p.Now())
	}
	if n.rec.Enabled() {
		n.rec.Span(n.track, "noc", "multicast", int64(start), int64(p.Now()),
			telemetry.I("src", int64(src)), telemetry.I("fanout", int64(len(dsts))),
			telemetry.I("bytes", bytes))
	}
}

// ByteHops returns the accumulated byte-hop product (for NoC energy).
func (n *NoC) ByteHops() int64 { return n.byteHops }

// Transfers returns the number of payload transfers.
func (n *NoC) Transfers() int64 { return n.transfers }

// Probes returns the number of probe handshakes performed.
func (n *NoC) Probes() int64 { return n.probes }
