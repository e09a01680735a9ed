package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ips/benchmark/load"
)

// numKinds is the number of operation kinds (load.TopK, Add, Batch).
const numKinds = 3

// loopResult is what one measured phase observed from the caller's side.
type loopResult struct {
	// byKind holds one sample per answered call. In the closed loop a
	// sample's time is when the call started; in the open loop it is when
	// the call was due, and its latency runs from then.
	byKind [numKinds][]sample
	// lateUs is, per open-loop call, how long after its due time a worker
	// actually sent it.
	lateUs            []float64
	attempted, failed int64
}

func (r *loopResult) merge(o *loopResult) {
	for k := range r.byKind {
		r.byKind[k] = append(r.byKind[k], o.byKind[k]...)
	}
	r.lateUs = append(r.lateUs, o.lateUs...)
	r.attempted += o.attempted
	r.failed += o.failed
}

// all returns every answered call's sample.
func (r *loopResult) all() []sample {
	var out []sample
	for _, s := range r.byKind {
		out = append(out, s...)
	}
	return out
}

// doFunc issues one operation on behalf of worker i and reports whether
// the program answered it completely.
type doFunc func(i int, op *load.Op) error

// runClosed is the closed loop: callers goroutines, each with its own
// generator, each sending its next call only when the previous one is
// answered. It ends when dur has passed or, for the warm-up, when maxOps
// calls have been started; a zero limit does not apply.
func runClosed(callers int, dur time.Duration, maxOps int64, gens func(i int) *load.Generator, do doFunc) loopResult {
	start := time.Now()
	parts := make([]loopResult, callers)
	var started atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen, res := gens(i), &parts[i]
			var op load.Op
			for {
				t0 := time.Since(start)
				if dur > 0 && t0 >= dur || maxOps > 0 && started.Add(1) > maxOps {
					return
				}
				gen.Next(&op)
				err := do(i, &op)
				res.attempted++
				if err != nil {
					res.failed++
					continue
				}
				res.byKind[op.Kind] = append(res.byKind[op.Kind], sample{int64(t0), int64(time.Since(start) - t0)})
			}
		}(i)
	}
	wg.Wait()
	var total loopResult
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// sleepUntil blocks the calling thread in nanosleep until t. The pacer
// cannot use time.Sleep: the runtime's timers ride on epoll's millisecond
// timeout, so a 50µs sleep returns a millisecond late, while nanosleep
// overshoots by well under 100µs. A signal (the runtime's preemption)
// ends nanosleep early, hence the loop.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // an early return is handled by the loop
	}
}

// unansweredAfter is how long past its due time a queued call may still
// be sent; later than that it is counted as failed without being sent, so
// a backlog cannot outlive the phase by more than this.
const unansweredAfter = time.Second

// pacedCall is the open loop's record of one call. The records of a phase
// are allocated before its clock starts and each is written by the one
// worker that took the call, so while the program is being timed the
// generator allocates nothing and takes no lock.
type pacedCall struct {
	kind     load.Kind
	answered bool
	// When the call was due, and how long after that moment a worker sent
	// it (lateNs) and the program had answered it (latNs).
	dueNs, lateNs, latNs int64
}

// runPaced is the open loop: one pacer draws seeded exponential gaps at
// rate calls per second and hands each call, at its due time, to a pool
// of workers. The pacer never waits for the program: the queue holds
// every call the phase can produce, so a stall delays answers, not
// arrivals, and each call's latency is measured from when it was due.
func runPaced(gen *load.Generator, rate float64, dur time.Duration, workers int, do doFunc) loopResult {
	type job struct {
		op  *load.Op
		rec *pacedCall
	}
	capacity := int(rate*dur.Seconds()*1.5) + 1024
	calls := make([]pacedCall, 0, capacity)
	queue := make(chan job, capacity)
	// free recycles operations between workers and the pacer; it starts
	// with as many as can be in flight, and a backlog makes the pacer
	// allocate more.
	free := make(chan *load.Op, capacity+workers)
	for i := 0; i < 2*workers; i++ {
		free <- new(load.Op)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := range queue {
				c := j.rec
				c.kind = j.op.Kind
				c.lateNs = int64(time.Since(start)) - c.dueNs
				if c.lateNs <= int64(unansweredAfter) && do(i, j.op) == nil {
					c.answered = true
					c.latNs = int64(time.Since(start)) - c.dueNs
				}
				free <- j.op
			}
		}(i)
	}

	var due time.Duration
	for {
		due += time.Duration(gen.Gap(rate) * 1e9)
		if due >= dur || len(calls) == cap(calls) { // calls must not move: workers hold pointers into it
			break
		}
		var op *load.Op
		select {
		case op = <-free:
		default:
			op = new(load.Op)
		}
		gen.Next(op)
		calls = append(calls, pacedCall{dueNs: int64(due)})
		sleepUntil(start.Add(due))
		queue <- job{op, &calls[len(calls)-1]} // never blocks: the queue holds capacity jobs
		// Let the worker just woken run on this thread's processor before
		// the pacer goes back to sleep. A goroutine asleep in a system call
		// keeps its processor, and whatever waits in that processor's queue
		// waits with it until another processor is idle enough to steal it
		// or the runtime's monitor takes the processor away, up to 10ms
		// later.
		runtime.Gosched()
	}
	close(queue)
	wg.Wait()

	res := loopResult{attempted: int64(len(calls)), lateUs: make([]float64, len(calls))}
	for i := range calls {
		c := &calls[i]
		res.lateUs[i] = float64(c.lateNs) / 1e3
		if c.answered {
			res.byKind[c.kind] = append(res.byKind[c.kind], sample{c.dueNs, c.latNs})
		} else {
			res.failed++
		}
	}
	return res
}
