package sim

import "fmt"

// Proc is a simulation process: a coroutine that advances simulated time by
// calling Wait and blocks on synchronization primitives. Exactly one process
// (or event callback) runs at a time, so process bodies never race with each
// other and the simulation stays deterministic. How control passes between
// the engine and a process (the handoff) is build-specific: a coroutine
// switch (process_coro.go), or a channel pair under the race detector
// (process_race.go).
type Proc struct {
	env  *Env
	name string
	dead bool
	// parked is set while the process is suspended in park (Wait or a
	// primitive), for the deadlock diagnostic Env.BlockedProcs.
	parked bool
	// prevLive and nextLive link the process into its Env's list of live
	// processes, which BlockedProcs walks.
	prevLive, nextLive *Proc
	// runFn is the method value p.run, materialized once at creation: every
	// Wait and every primitive wake-up schedules it, and building a fresh
	// method value per wake would allocate a closure each time.
	runFn func()
	handoff
}

// Go starts fn as a new simulation process. The process begins at the current
// simulated time, before any further events fire. The name is used in
// deadlock diagnostics only.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name}
	p.runFn = p.run
	e.nprocs++
	p.nextLive = e.live
	if e.live != nil {
		e.live.prevLive = p
	}
	e.live = p
	p.start(fn)
	// Kick the process from an event so that it runs under engine control.
	e.Schedule(0, p.runFn)
	return p
}

// exit retires a process whose body has returned: it leaves the live list
// and never runs again.
func (p *Proc) exit() {
	p.dead = true
	e := p.env
	e.nprocs--
	if p.prevLive != nil {
		p.prevLive.nextLive = p.nextLive
	} else {
		e.live = p.nextLive
	}
	if p.nextLive != nil {
		p.nextLive.prevLive = p.prevLive
	}
	p.prevLive, p.nextLive = nil, nil
}

// run transfers control to the process and returns once it parks again (in
// Wait / a primitive) or terminates. A panic in the process body is
// re-raised here, on the engine's side, so it reaches the caller of Env.Run.
func (p *Proc) run() {
	if p.dead {
		return
	}
	p.resume()
}

// park suspends the process and returns control to the engine. wake must have
// been arranged (an event or a primitive callback that calls p.run).
// While parked the process is flagged, so a drained engine can report who is
// still blocked — the deadlock diagnostic surfaced by Env.BlockedProcs.
func (p *Proc) park() {
	p.parked = true
	p.suspend()
	p.parked = false
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.env.now }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Wait suspends the process for d cycles. Wait(0) yields to other events
// scheduled at the current time.
func (p *Proc) Wait(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %s waits negative %d", p.name, d))
	}
	p.env.Schedule(d, p.runFn)
	p.park()
}

// Signal is a broadcast condition. Processes block in Await until some event
// calls Fire; every waiter is released. After Fire the signal stays open
// (subsequent Await calls return immediately) until Reset.
type Signal struct {
	env     *Env
	fired   bool
	waiters []*Proc
}

// NewSignal returns an unfired signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Fired reports whether the signal is open.
func (s *Signal) Fired() bool { return s.fired }

// Fire opens the signal, releasing all waiters. Firing an open signal is a
// no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	ws := s.waiters
	s.waiters = nil
	for _, p := range ws {
		s.env.Schedule(0, p.runFn)
	}
}

// Reset closes the signal so future Await calls block again.
func (s *Signal) Reset() { s.fired = false }

// Await blocks the process until the signal is open.
func (s *Signal) Await(p *Proc) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, p)
	p.park()
}

// Store is a FIFO channel between processes with a bounded capacity.
// Put blocks while the store is full; Get blocks while it is empty.
// It models bounded on-chip buffers (e.g. a tile's input staging area).
type Store struct {
	env     *Env
	cap     int
	items   []interface{}
	getters []*Proc
	putters []*Proc
}

// NewStore returns a store holding at most capacity items. A capacity of 0
// or less means unbounded. Bounded stores pre-size their buffer so Put/TryPut
// never reallocate.
func NewStore(env *Env, capacity int) *Store {
	s := &Store{env: env, cap: capacity}
	if capacity > 0 {
		s.items = make([]interface{}, 0, capacity)
	}
	return s
}

// Len reports the number of buffered items.
func (s *Store) Len() int { return len(s.items) }

// Put appends an item, blocking the process while the store is full.
func (s *Store) Put(p *Proc, item interface{}) {
	for s.cap > 0 && len(s.items) >= s.cap {
		s.putters = append(s.putters, p)
		p.park()
	}
	s.items = append(s.items, item)
	s.wakeOneGetter()
}

// TryPut appends an item without blocking; it reports false if the store is
// full. It may be called from event callbacks as well as processes.
func (s *Store) TryPut(item interface{}) bool {
	if s.cap > 0 && len(s.items) >= s.cap {
		return false
	}
	s.items = append(s.items, item)
	s.wakeOneGetter()
	return true
}

// Get removes and returns the oldest item, blocking while the store is empty.
func (s *Store) Get(p *Proc) interface{} {
	for len(s.items) == 0 {
		s.getters = append(s.getters, p)
		p.park()
	}
	item := s.items[0]
	copy(s.items, s.items[1:])
	s.items[len(s.items)-1] = nil
	s.items = s.items[:len(s.items)-1]
	s.wakeOnePutter()
	return item
}

func (s *Store) wakeOneGetter() {
	if len(s.getters) == 0 {
		return
	}
	p := s.getters[0]
	copy(s.getters, s.getters[1:])
	s.getters = s.getters[:len(s.getters)-1]
	s.env.Schedule(0, p.runFn)
}

func (s *Store) wakeOnePutter() {
	if len(s.putters) == 0 {
		return
	}
	p := s.putters[0]
	copy(s.putters, s.putters[1:])
	s.putters = s.putters[:len(s.putters)-1]
	s.env.Schedule(0, p.runFn)
}

// Server models a bandwidth-limited FIFO service center (an HBM stack, a NoC
// link): requests of a given size are served one at a time at a fixed rate in
// bytes per cycle. Serve blocks the calling process until its request has
// fully drained, including queueing delay behind earlier requests.
type Server struct {
	env         *Env
	bytesPerCyc float64
	freeAt      Time // earliest time a new request can start service
	busyCycles  Time // accumulated service time, for utilization accounting
	servedBytes float64
	servedCount int64
}

// NewServer returns a server draining bytesPerCycle bytes each cycle.
func NewServer(env *Env, bytesPerCycle float64) *Server {
	if bytesPerCycle <= 0 {
		panic("sim: server rate must be positive")
	}
	return &Server{env: env, bytesPerCyc: bytesPerCycle}
}

// SetRate changes the server's drain rate. Requests already booked keep
// their completion times (they were admitted at the old rate); only future
// requests are served at the new rate. The fault injector uses this to model
// degraded links and lost memory stacks mid-simulation.
func (s *Server) SetRate(bytesPerCycle float64) {
	if bytesPerCycle <= 0 {
		panic("sim: server rate must be positive")
	}
	s.bytesPerCyc = bytesPerCycle
}

// Rate returns the current drain rate in bytes per cycle.
func (s *Server) Rate() float64 { return s.bytesPerCyc }

// ServiceTime returns the pure service time for a request of n bytes,
// excluding queueing.
func (s *Server) ServiceTime(n int64) Time {
	if n <= 0 {
		return 0
	}
	t := Time(float64(n) / s.bytesPerCyc)
	if t < 1 {
		t = 1
	}
	return t
}

// Serve enqueues a request of n bytes and blocks until it completes.
// It returns the completion time.
func (s *Server) Serve(p *Proc, n int64) Time {
	if n <= 0 {
		return s.env.now
	}
	start := s.env.now
	if s.freeAt > start {
		start = s.freeAt
	}
	d := s.ServiceTime(n)
	done := start + d
	s.freeAt = done
	s.busyCycles += d
	s.servedBytes += float64(n)
	s.servedCount++
	p.Wait(done - s.env.now)
	return done
}

// Reserve books service for n bytes without blocking and returns the
// completion time. It is used by event-callback contexts (e.g. DMA engines)
// that track completion themselves.
func (s *Server) Reserve(n int64) Time {
	if n <= 0 {
		return s.env.now
	}
	start := s.env.now
	if s.freeAt > start {
		start = s.freeAt
	}
	d := s.ServiceTime(n)
	s.freeAt = start + d
	s.busyCycles += d
	s.servedBytes += float64(n)
	s.servedCount++
	return s.freeAt
}

// BusyCycles returns the total cycles the server spent serving requests.
func (s *Server) BusyCycles() Time { return s.busyCycles }

// ServedBytes returns the total bytes served.
func (s *Server) ServedBytes() float64 { return s.servedBytes }

// ServedCount returns the number of requests served.
func (s *Server) ServedCount() int64 { return s.servedCount }
