//go:build !go1.23 || race

package sim

import "runtime"

// handoff runs a process as a goroutine that trades control with the engine
// over two unbuffered channels. Race builds use it instead of the coroutine
// handoff (process_coro.go): up to at least Go 1.24 the runtime destroys a
// finished coroutine without releasing its race-detector state (coroexit
// does not call racegoend), so every finished process would leak about 5 KB
// under -race. Delete this file once a Go release's coroexit calls
// racegoend.
type handoff struct {
	wake  chan struct{} // engine -> process: continue
	yield chan struct{} // process -> engine: parked or done
	// fault carries a panic out of the process goroutine; errGoexit marks a
	// body that called runtime.Goexit.
	fault any
}

// errGoexit is the fault of a process whose body called runtime.Goexit.
var errGoexit = new(int)

// start launches the process goroutine, which waits for its first resume.
func (p *Proc) start(fn func(p *Proc)) {
	p.wake = make(chan struct{})
	p.yield = make(chan struct{})
	go func() {
		<-p.wake
		defer func() {
			if r := recover(); r != nil {
				p.fault = r
			} else if !p.dead {
				p.fault = errGoexit
			}
			p.yield <- struct{}{}
		}()
		fn(p)
		p.exit()
	}()
}

// resume hands control to the process goroutine and blocks until it parks
// again or terminates. A panic (or Goexit) in the body is re-raised here, on
// the engine's goroutine, as the coroutine handoff does.
func (p *Proc) resume() {
	p.wake <- struct{}{}
	<-p.yield
	if f := p.fault; f != nil {
		p.dead = true
		if f == errGoexit {
			runtime.Goexit()
		}
		panic(f)
	}
}

// suspend hands control back to the engine and blocks until resumed.
func (p *Proc) suspend() {
	p.yield <- struct{}{}
	<-p.wake
}
