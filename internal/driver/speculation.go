package driver

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ssr/internal/cluster"
)

// SpeculationConfig enables progress-based speculative execution — the
// "status quo" straggler mitigation of Spark and LATE that Sec. IV-C of
// the paper compares its reserved-slot strategy against. Once a fraction
// of a phase's tasks has finished, any task running longer than Multiplier
// times the median completed duration gets a speculative copy on a free
// slot.
//
// Unlike the paper's reserved-slot mitigation, these copies (a) consume
// slots other jobs could use (they are not interference-free) and (b) land
// on arbitrary slots, paying the cold-JVM/remote penalty when the task is
// locality-constrained.
type SpeculationConfig struct {
	// Enabled turns the speculation scanner on.
	Enabled bool
	// Quantile is the fraction of the phase's tasks that must have
	// completed before speculation starts (Spark's
	// spark.speculation.quantile; default 0.75).
	Quantile float64
	// Multiplier is how many times slower than the median completed
	// duration a task must be to get a copy (Spark's
	// spark.speculation.multiplier; default 1.5).
	Multiplier float64
	// Interval is the scan period (Spark's spark.speculation.interval;
	// default 100ms).
	Interval time.Duration
}

// DefaultSpeculation returns Spark's default speculation parameters.
func DefaultSpeculation() SpeculationConfig {
	return SpeculationConfig{
		Enabled:    true,
		Quantile:   0.75,
		Multiplier: 1.5,
		Interval:   100 * time.Millisecond,
	}
}

func (c SpeculationConfig) validate() error {
	if !c.Enabled {
		return nil
	}
	if c.Quantile < 0 || c.Quantile > 1 {
		return fmt.Errorf("driver: speculation quantile %v must be in [0, 1]", c.Quantile)
	}
	if c.Multiplier < 1 {
		return fmt.Errorf("driver: speculation multiplier %v must be >= 1", c.Multiplier)
	}
	if c.Interval <= 0 {
		return errors.New("driver: speculation interval must be positive")
	}
	return nil
}

// startSpeculation arms the periodic scanner for a phase.
func (d *Driver) startSpeculation(pr *phaseRun) {
	if !d.opts.Speculation.Enabled {
		return
	}
	var tick func()
	tick = func() {
		d.eng.Release(pr.specTimer)
		pr.specTimer = nil
		if pr.tracker.Done() || pr.jr.finished {
			return
		}
		d.speculateOnce(pr)
		if !pr.tracker.Done() {
			pr.specTimer = d.eng.After(d.opts.Speculation.Interval, tick)
		}
	}
	pr.specTimer = d.eng.After(d.opts.Speculation.Interval, tick)
}

// stopSpeculation cancels the scanner at phase completion.
func (d *Driver) stopSpeculation(pr *phaseRun) {
	if pr.specTimer != nil {
		pr.specTimer.Cancel()
		d.eng.Release(pr.specTimer)
		pr.specTimer = nil
	}
}

// speculateOnce performs one scan: find slow running tasks and copy them
// onto free slots.
func (d *Driver) speculateOnce(pr *phaseRun) {
	cfg := d.opts.Speculation
	m := pr.phase.Parallelism()
	if pr.done == 0 || float64(pr.done)/float64(m) < cfg.Quantile {
		return
	}
	if len(pr.doneDurations) == 0 {
		return
	}
	sorted := append([]time.Duration(nil), pr.doneDurations...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	median := sorted[len(sorted)/2]
	threshold := time.Duration(float64(median) * cfg.Multiplier)
	now := d.eng.Now()
	for idx, task := range pr.tasks() {
		if task.done || task.orig == nil || task.dup != nil {
			continue
		}
		if now-task.orig.start <= threshold {
			continue
		}
		slot, ok := d.cl.AcquireFree(pr.phase.Demand)
		if !ok {
			return // no capacity; retry next scan
		}
		d.launchSpecCopy(pr, idx, slot)
	}
}

// launchSpecCopy starts a status-quo speculative copy on an arbitrary
// (cold) slot: unlike reserved-slot mitigation copies, it pays the
// locality penalty when the task is constrained and the slot does not
// hold its partition.
func (d *Driver) launchSpecCopy(pr *phaseRun, idx int, slot cluster.SlotID) {
	jr := pr.jr
	task := pr.phase.Tasks[idx]
	dur := task.CopyDuration
	local := true
	if pr.isConstrained(idx) {
		if pr.narrow {
			local = pr.taskPref[idx] == slot
		} else {
			local = pr.prefSet[slot]
		}
	}
	if !local {
		dur = time.Duration(float64(dur) * d.opts.LocalityFactor)
	}
	att := d.newAttempt(attempt{pr: pr, taskIdx: idx, isCopy: true, local: local, slot: slot, start: d.eng.Now()})
	att.timer = d.eng.AfterArg(d.scaleDur(dur, slot), d.onFinishArg, att)
	pr.tasks()[idx].dup = att
	d.slotOwner[slot] = att
	jr.running++
	jr.stats.CopiesLaunched++
	d.emitAttempt(EventAttemptStart, att)
	d.recordTimeline(jr)
}
