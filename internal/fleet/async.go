package fleet

// The fleet engine: device state lives in a task table and a bounded
// executor pool (Config.DeviceWorkers) drives it. Most devices run their
// whole pipeline as one executor step. A device that must wait parks its
// task instead of holding an executor, and the task goes back on the
// ready queue when the wait ends. There are two waits:
//
//   - A scheduled secure-filter speaker's run is sliced at the classify
//     stage (core.StagedSession): the executor captures and transcribes
//     a group, submits each encoded utterance as its own single-item
//     scheduler enqueue, and parks; the last completion callback
//     re-enqueues the task and a (possibly different) executor resumes
//     the group — charging the wait, relaying survivors — and captures
//     the next one. The scheduler owns no goroutines: the executor whose
//     submission fills a batch, or whose NotifyIdle probe makes the idle
//     cut, runs that flush and delivers its callbacks, then goes back to
//     nextTask and probes again before it sleeps.
//   - A secure-filter device still on the base pack when its workload
//     ends (the rollout's stable cohort) reports its rollout outcome and
//     parks on the rollout's one-shot verdict notification; resumed, it
//     converges (or records its rollback) and finishes. A canary never
//     waits behind a parked device for an executor, so the rollout
//     composes with any pool size, the scheduler included.
//
// Admission itself waits once: under a staged rollout it pauses at the
// verdict point, after the canary and stable cohorts, until the verdict
// is in (attestState.stage). Every later device provisions on the
// verdict, so which pack a device classifies on is a function of the
// plan, and the stable cohort bounds the pipelines parked on it.
//
// Two properties fall out. Scale: a 10⁴–10⁵-device population costs the
// pool's goroutines, not one goroutine per device, and at most ~pool size
// + a flush worth of device pipelines are constructed at once.
// Coalescing: classify submissions are true concurrent single-item
// enqueues, so scheduler occupancy comes from cross-device batching
// rather than one device's whole queue entering as a multi-item request.
// The engine moves only where waiting happens, never what is computed.

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/tz"
)

// AsyncSpec is retained for source compatibility; the fleet always runs
// the event-driven engine, sized by Config.DeviceWorkers.
//
// Deprecated: Config.Async is ignored.
type AsyncSpec struct {
	// Executors is ignored; see Config.DeviceWorkers.
	Executors int
}

// AsyncReport summarizes the engine's execution.
type AsyncReport struct {
	// Executors is the pool size that drove the run.
	Executors int
	// Steps counts executor dispatches (task admissions + resumptions).
	Steps uint64
	// Parks counts waits: utterance groups parked awaiting a shared
	// classify flush, plus devices parked awaiting the rollout verdict.
	// Zero on a run with neither a scheduler nor a staged rollout.
	Parks uint64
	// PeakLive is the most device pipelines concurrently constructed —
	// the honest memory figure for large populations (it stays near
	// Executors plus a flush's worth of parked devices, not Devices).
	PeakLive int
}

// devTask is one device's table entry: its pipeline context plus the
// state a parked task needs to resume.
type devTask struct {
	idx int
	dc  *devCtx
	st  *core.StagedSession
	pg  *core.PendingGroup
	// res is the finished workload's result while the task waits for
	// the rollout verdict; full is the verdict once delivered.
	res  *core.DeviceResult
	full bool

	// Per-parked-group completion state, guarded by the engine mutex:
	// the j-th submission's callback fills slot j; remaining counts
	// outstanding callbacks plus one submitter hold.
	flags     []bool
	occs      []int
	waits     []tz.Cycles
	remaining int
	failed    error
}

// asyncEngine drives the task table with a bounded executor pool.
type asyncEngine struct {
	r     *runner
	specs []core.DeviceSpec
	order []int
	execs int

	mu     sync.Mutex
	cond   *sync.Cond
	ready  []*devTask
	next   int // admission cursor into order
	active int // tasks admitted and not yet finished
	// Admission at or past verdictAt waits for verdict: the staged
	// rollout's canary verdict is in (always true without a rollout).
	verdictAt int
	verdict   bool
	peak      int
	steps     uint64
	parks     uint64
	firstErr  error
}

func newAsyncEngine(r *runner, specs []core.DeviceSpec, order []int) *asyncEngine {
	e := &asyncEngine{r: r, specs: specs, order: order, execs: max(1, min(r.cfg.DeviceWorkers, len(order))), verdict: true}
	e.cond = sync.NewCond(&e.mu)
	if st := r.st; st != nil && st.rollout != nil {
		e.verdictAt, e.verdict = st.stage(specs, order), false
		st.rollout.OnSettled(func(bool) {
			e.mu.Lock()
			e.verdict = true
			e.cond.Broadcast()
			e.mu.Unlock()
		})
	}
	return e
}

// run blocks until every admitted task has finished (after an error, no
// new tasks are admitted but in-flight ones complete, so no scheduler
// entry is ever stranded) and returns the first error.
func (e *asyncEngine) run() error {
	var wg sync.WaitGroup
	wg.Add(e.execs)
	for i := 0; i < e.execs; i++ {
		go func() {
			defer wg.Done()
			for {
				t := e.nextTask()
				if t == nil {
					return
				}
				e.step(t)
			}
		}()
	}
	wg.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firstErr
}

// nextTask returns the next runnable task — a resumed parked task first,
// else a fresh admission (held at the verdict point until the rollout
// verdict) — or nil when the run is over. With nothing runnable it drives
// the scheduler's idle rule (NotifyIdle) before sleeping: the executors
// collectively assert nothing new can arrive. An executor that ran a
// flush always comes back here, so it probes again after every flush.
func (e *asyncEngine) nextTask() *devTask {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if len(e.ready) > 0 {
			t := e.ready[0]
			// Shift rather than reslice, so the queue keeps one backing
			// array: a flush readies its tasks in a burst, which would
			// otherwise regrow a fresh one.
			e.ready = slices.Delete(e.ready, 0, 1)
			e.steps++
			return t
		}
		if e.canAdmit() {
			idx := e.order[e.next]
			e.next++
			e.active++
			if e.active > e.peak {
				e.peak = e.active
			}
			e.steps++
			return &devTask{idx: idx}
		}
		if e.active == 0 {
			return nil
		}
		if e.r.sched != nil {
			// Outstanding tasks are parked. NotifyIdle cuts the oldest
			// queue's deadline flush and runs it here, unless another
			// executor has a flush in flight: that executor probes again
			// once its flush is delivered, so this one may sleep. Probe off
			// the engine lock (the callbacks take it), then re-check state
			// before sleeping so the wakeup cannot be lost.
			e.mu.Unlock()
			cut := e.r.sched.scheduler.NotifyIdle()
			e.mu.Lock()
			if len(e.ready) > 0 || e.canAdmit() || e.active == 0 || cut {
				continue
			}
		}
		e.cond.Wait()
	}
}

// canAdmit reports whether a fresh task may be admitted. Called with the
// engine mutex held.
func (e *asyncEngine) canAdmit() bool {
	return e.firstErr == nil && e.next < len(e.order) && (e.verdict || e.next < e.verdictAt)
}

// step advances one task: admission (setup, then either a full pipeline
// run or the first staged capture), a classify resumption (feed the
// shared classifier's verdicts back, capture the next group), or a
// rollout resumption (converge on the verdict, finish).
func (e *asyncEngine) step(t *devTask) {
	switch {
	case t.dc == nil:
		e.admit(t)
	case t.res != nil:
		err := e.r.st.converge(t.dc.d, t.dc.id, t.dc.tenant, t.full)
		if err != nil {
			err = fmt.Errorf("device %d converge: %w", t.idx, err)
		} else {
			err = e.r.finishOne(t.dc, t.res)
		}
		e.finish(t, err)
	default:
		e.resume(t)
	}
}

// admit sets a device up and starts its pipeline. Parkable classify work
// is exactly the shared-classify population: everything else has no
// external stage to park on and runs its whole pipeline in this step
// (still table-driven — no goroutine outlives the step).
func (e *asyncEngine) admit(t *devTask) {
	dc, err := e.r.setupOne(e.specs[t.idx], t.idx)
	if err != nil {
		e.finish(t, err)
		return
	}
	t.dc = dc
	if !dc.spec.SharedClassify {
		res, err := dc.d.Run(dc.w)
		if err != nil {
			e.finish(t, fmt.Errorf("device %d: %w", t.idx, err))
			return
		}
		e.settle(t, res)
		return
	}
	st, err := dc.d.Speaker.BeginStagedSession(dc.w.Utterances, dc.spec.Batch)
	if err != nil {
		e.finish(t, fmt.Errorf("device %d: %w", t.idx, err))
		return
	}
	t.st = st
	e.captureOrFinish(t)
}

// resume completes a parked group: its verdicts are in. The group's
// shared passes overlapped in virtual time — the classification is done
// when the last one returns, so the group waits the max.
func (e *asyncEngine) resume(t *devTask) {
	if t.failed != nil {
		t.st.Abort()
		e.finish(t, fmt.Errorf("device %d classify: %w", t.idx, t.failed))
		return
	}
	var wait tz.Cycles
	for _, w := range t.waits {
		wait = max(wait, w)
	}
	if err := t.st.ResumeGroup(t.pg, t.flags, t.occs, wait); err != nil {
		t.st.Abort()
		e.finish(t, fmt.Errorf("device %d: %w", t.idx, err))
		return
	}
	e.captureOrFinish(t)
}

// captureOrFinish captures the task's next utterance group and parks it
// on the scheduler, or — when the workload is exhausted — finalizes the
// session and settles the device.
func (e *asyncEngine) captureOrFinish(t *devTask) {
	pg, err := t.st.CaptureGroup()
	if err != nil {
		t.st.Abort()
		e.finish(t, fmt.Errorf("device %d: %w", t.idx, err))
		return
	}
	if pg == nil {
		res, err := t.st.Finish()
		if err != nil {
			e.finish(t, fmt.Errorf("device %d: %w", t.idx, err))
			return
		}
		e.settle(t, &core.DeviceResult{Spec: t.dc.spec, Session: res})
		return
	}
	n := len(pg.Tokens)
	t.pg = pg
	t.flags = make([]bool, n)
	t.occs = make([]int, n)
	t.waits = make([]tz.Cycles, n)
	t.failed = nil
	// n callbacks plus the submitter hold: the task re-enqueues only
	// when the count drains, so an early callback cannot race the
	// executor still submitting the rest of the group.
	e.park(t, n+1)
	for j := 0; j < n; j++ {
		j := j
		err := e.r.sched.scheduler.SubmitAsync(sched.Request{
			DeviceID: t.dc.id,
			Version:  pg.Version,
			Items:    [][]int{pg.Tokens[j]},
			Now:      pg.Now,
		}, func(resp sched.Response, err error) {
			e.mu.Lock()
			if err != nil {
				t.failed = err
			} else {
				t.flags[j] = resp.Flagged[0]
				t.occs[j] = resp.Occupancy
				t.waits[j] = resp.Wait
			}
			e.release(t, 1)
			e.mu.Unlock()
		})
		if err != nil {
			// Submission failed: the unsubmitted tail (this item included)
			// will never see callbacks.
			e.mu.Lock()
			t.failed = err
			e.release(t, n-j)
			e.mu.Unlock()
			break
		}
	}
	e.mu.Lock()
	e.release(t, 1) // submitter hold
	e.mu.Unlock()
}

// settle runs the front of a device's finish flow once its workload is
// done. A device that must wait for the rollout verdict parks on it;
// any other finishes now.
func (e *asyncEngine) settle(t *devTask, res *core.DeviceResult) {
	wait, err := e.r.reportOne(t.dc)
	if err != nil || !wait {
		if err == nil {
			err = e.r.finishOne(t.dc, res)
		}
		e.finish(t, err)
		return
	}
	t.res = res
	e.park(t, 1)
	e.r.st.rollout.OnSettled(func(full bool) {
		e.mu.Lock()
		t.full = full
		e.release(t, 1)
		e.mu.Unlock()
	})
}

// park counts a wait and arms the task's completion holds.
func (e *asyncEngine) park(t *devTask, holds int) {
	e.mu.Lock()
	t.remaining = holds
	e.parks++
	e.mu.Unlock()
}

// release drops k completion holds from a parked task and re-enqueues it,
// waking the executors, when the count drains. Called with the engine
// mutex held. A flush that delivers only partial groups readies no task
// and wakes no one: the executor that ran it probes NotifyIdle for the
// leftovers itself.
func (e *asyncEngine) release(t *devTask, k int) {
	t.remaining -= k
	if t.remaining == 0 {
		e.ready = append(e.ready, t)
		e.cond.Broadcast()
	}
}

// finish retires a task: settle its accounting, abort a staged rollout
// on error (waking every device parked on its verdict), record the first
// error, and wake executors re-checking the termination condition.
func (e *asyncEngine) finish(t *devTask, err error) {
	if t.dc != nil {
		t.dc.close(e.r)
	}
	if st := e.r.st; err != nil && st != nil && st.rollout != nil {
		reason := fmt.Sprintf("device failure: %v", err)
		e.r.tracer.Anomaly("rollout-abort", reason)
		st.rollout.Abort(reason)
	}
	e.mu.Lock()
	if err != nil && e.firstErr == nil {
		e.firstErr = err
	}
	e.active--
	e.cond.Broadcast()
	e.mu.Unlock()
}

// report snapshots the engine's counters after run returns.
func (e *asyncEngine) report() *AsyncReport {
	return &AsyncReport{Executors: e.execs, Steps: e.steps, Parks: e.parks, PeakLive: e.peak}
}
