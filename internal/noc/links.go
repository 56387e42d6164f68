package noc

import (
	"repro/internal/sim"
)

// Link-level modelling: X-Y dimension-order routing visits a concrete
// sequence of unidirectional torus links; each link is a bandwidth server,
// so two transfers crossing the same link contend for it even when their
// endpoints differ — the congestion a hop-count-only model misses.

// linkID identifies a unidirectional link leaving a tile.
type linkID struct {
	from int
	dir  int // 0:+x 1:-x 2:+y 3:-y
}

// Directions.
const (
	dirXPlus = iota
	dirXMinus
	dirYPlus
	dirYMinus
)

// link returns (lazily creating) the server for one link.
func (n *NoC) link(id linkID) *sim.Server {
	i := 4*id.from + id.dir
	s := n.links[i]
	if s == nil {
		s = sim.NewServer(n.env, n.rate)
		n.links[i] = s
	}
	return s
}

// xyWalk steps through the links of an X-Y route one at a time, without
// materializing the route: the hot path (reserveLinks) books each link as it
// is reached. It visits exactly the links between consecutive tiles of
// Path(src, dst), in order (TestWalkMatchesPathLinks).
type xyWalk struct {
	cols, rows int // torus dimensions (TilesX, TilesY)
	x, y       int // current tile coordinates
	tx, ty     int // destination coordinates
	sx, sy     int // step per hop in each dimension: +1 or -1
	dirX, dirY int // link direction of an X hop and of a Y hop
	hops       int // links visited so far
}

// walk starts an X-Y route from src to dst. Each dimension goes the shorter
// way around the torus (the direct way on a tie), and that way never changes
// along the route, so it is fixed here once.
func (n *NoC) walk(src, dst int) xyWalk {
	w := xyWalk{cols: n.cfg.TilesX, rows: n.cfg.TilesY}
	w.x, w.y = n.coord(src)
	w.tx, w.ty = n.coord(dst)
	w.sx, w.dirX = ringStep(w.x, w.tx, w.cols, dirXPlus, dirXMinus)
	w.sy, w.dirY = ringStep(w.y, w.ty, w.rows, dirYPlus, dirYMinus)
	return w
}

// ringStep returns the per-hop step from cur toward target on a ring of the
// given size and the direction of the links that step crosses. On a ring of
// two the +1 and -1 neighbours coincide, and the hop is named plus: one
// physical link serves both.
func ringStep(cur, target, size, plus, minus int) (step, dir int) {
	d := target - cur
	forward := d > 0
	if abs(d) > size-abs(d) {
		forward = !forward
	}
	switch {
	case forward:
		return 1, plus
	case size == 2:
		return -1, plus
	default:
		return -1, minus
	}
}

// next returns the next link of the route; ok is false once the walk has
// reached the destination.
func (w *xyWalk) next() (l linkID, ok bool) {
	from := w.y*w.cols + w.x
	switch {
	case w.x != w.tx:
		w.x = (w.x + w.sx + w.cols) % w.cols
		l = linkID{from: from, dir: w.dirX}
	case w.y != w.ty:
		w.y = (w.y + w.sy + w.rows) % w.rows
		l = linkID{from: from, dir: w.dirY}
	default:
		return linkID{}, false
	}
	w.hops++
	return l, true
}

// Path returns the tiles an X-Y routed packet traverses from src to dst,
// inclusive of both endpoints, taking the shorter torus direction in each
// dimension. Transfers do not build it: they walk the same route in place.
func (n *NoC) Path(src, dst int) []int {
	path := []int{src}
	x, y := n.coord(src)
	tx, ty := n.coord(dst)
	step := func(cur, target, size int) (int, bool) {
		if cur == target {
			return cur, false
		}
		d := target - cur
		// Take the shorter way around the torus.
		forward := d > 0
		if abs(d) > size-abs(d) {
			forward = !forward
		}
		if forward {
			return (cur + 1) % size, true
		}
		return (cur - 1 + size) % size, true
	}
	for {
		nx, moved := step(x, tx, n.cfg.TilesX)
		if !moved {
			break
		}
		x = nx
		path = append(path, y*n.cfg.TilesX+x)
	}
	for {
		ny, moved := step(y, ty, n.cfg.TilesY)
		if !moved {
			break
		}
		y = ny
		path = append(path, y*n.cfg.TilesX+x)
	}
	return path
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// reserveLinks books the payload on every link of the X-Y route (wormhole-
// style: the transfer occupies all its links for its serialization time) and
// returns the completion time of the slowest link plus the per-hop latency.
func (n *NoC) reserveLinks(src, dst int, share int64) sim.Time {
	var done sim.Time
	w := n.walk(src, dst)
	for l, ok := w.next(); ok; l, ok = w.next() {
		if t := n.link(l).Reserve(share); t > done {
			done = t
		}
	}
	return done + n.probeCycles(w.hops)
}

// LinkStats summarizes link occupancy for congestion analysis.
type LinkStats struct {
	Links          int
	MaxBusy        sim.Time
	TotalByteLinks int64
}

// LinkUtilization returns the occupancy summary of all links touched so far.
func (n *NoC) LinkUtilization() LinkStats {
	var st LinkStats
	for _, s := range n.links {
		if s == nil {
			continue
		}
		st.Links++
		if b := s.BusyCycles(); b > st.MaxBusy {
			st.MaxBusy = b
		}
		st.TotalByteLinks += int64(s.ServedBytes())
	}
	return st
}
