package service

import (
	"runtime"
	"testing"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/driver"
	"ssr/internal/obs"
	"ssr/internal/sim"
	"ssr/internal/stats"
	"ssr/internal/trace"
	"ssr/internal/workload"
)

// TestSinksAllocatePerChunkNotPerJob is the allocation guard for the five
// passive sinks New wires into a driver (trace recorder, audit ring,
// scheduler metrics, timeline, bus bridge): attached to a quick-scale
// Sec. VI-B cell — 100 nodes, the ML and SQL foreground suites over 400
// background jobs — they may cost at most half an allocation per job over
// running the same cell bare. What they keep grows by chunk and slab, not by
// job (the doubling stores they replaced cost 4.9 per job).
func TestSinksAllocatePerChunkNotPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	const fgPriority, bgPriority = 10, 1
	var cell []*dag.Job
	at := 150 * time.Second
	for i, spec := range workload.MLSuite() {
		j, err := spec.Build(dag.JobID(len(cell)+1), fgPriority, at, stats.SubStream(606, "fg-"+spec.Name, i))
		if err != nil {
			t.Fatal(err)
		}
		cell = append(cell, j)
		at += 20 * time.Second
	}
	for i, q := range workload.SQLQueries(1) {
		j, err := q.Build(dag.JobID(len(cell)+1), fgPriority, at, stats.SubStream(606, "fg-"+q.Name, i))
		if err != nil {
			t.Fatal(err)
		}
		cell = append(cell, j)
		at += 10 * time.Second
	}
	bg, err := workload.Background(workload.BackgroundConfig{
		Jobs: 400, Window: 10 * time.Minute, MeanTask: 50 * time.Second,
		Alpha: 1.6, DurationScale: 1, MaxParallelism: 60,
	}, 10000, bgPriority, stats.Stream(606, "bg"))
	if err != nil {
		t.Fatal(err)
	}
	cell = append(cell, bg...)

	run := func(observed bool) (mallocs, events uint64) {
		opts := driver.Options{
			Mode:               driver.ModeSSR,
			SSR:                core.DefaultConfig(),
			ReserveMinPriority: fgPriority,
		}
		var rec *trace.Recorder
		if observed {
			rec = trace.NewRecorder()
			bus := NewBus(1 << 16)
			opts.Trace = rec
			opts.Audit = obs.NewAudit(0)
			opts.Metrics = obs.NewSchedMetrics(obs.NewRegistry(), obs.Label{Key: "shard", Value: "0"})
			opts.RecordTimeline = true
			opts.OnEvent = func(ev driver.Event) {
				bus.Publish(Event{TimeMs: msOf(ev.Time), Type: ev.Type.String(), Job: int64(ev.Job),
					JobName: ev.JobName, Phase: ev.Phase, Task: ev.Task, Slot: int(ev.Slot),
					Copy: ev.Copy, Local: ev.Local, Count: ev.Count})
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		eng := sim.New()
		cl, err := cluster.New(100, 4)
		if err != nil {
			t.Fatal(err)
		}
		d, err := driver.New(eng, cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range cell {
			if err := d.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if observed && (rec.Len() == 0 || d.Timeline().Jobs() != len(cell)) {
			t.Fatalf("sinks saw %d attempts and %d of %d jobs", rec.Len(), d.Timeline().Jobs(), len(cell))
		}
		return m1.Mallocs - m0.Mallocs, eng.Events()
	}

	run(false) // warm the allocator's size classes off the count
	bare, bareEvents := run(false)
	observed, observedEvents := run(true)
	if bareEvents != observedEvents {
		t.Fatalf("sinks are not passive: %d events bare, %d observed", bareEvents, observedEvents)
	}
	perJob := (float64(observed) - float64(bare)) / float64(len(cell))
	t.Logf("%d jobs, %d events: %d mallocs bare, %d observed, %+.3f per job", len(cell), bareEvents, bare, observed, perJob)
	if perJob > 0.5 {
		t.Errorf("the five sinks cost %+.2f mallocs per job over the bare cell, want <= +0.5", perJob)
	}
}
