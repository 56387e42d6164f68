//go:build go1.23 && !race

package sim

import "iter"

// handoff runs a process as a coroutine (iter.Pull): resuming it is a direct
// switch to its goroutine and back, with no run queue, no wake-up of an idle
// P and no channel lock on the way.
type handoff struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// start wraps the process body in a coroutine; it first runs on the first
// resume.
func (p *Proc) start(fn func(p *Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
		p.exit()
	})
}

// resume switches to the process until it yields or returns. iter.Pull
// re-panics a panic from the body here, on the caller's goroutine.
func (p *Proc) resume() { p.next() }

// suspend switches back to whoever resumed the process.
func (p *Proc) suspend() { p.yield(struct{}{}) }
