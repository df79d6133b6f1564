package driver

import (
	"reflect"
	"testing"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
)

// TestFinalPhaseRecordsNoLocality: nothing ever looks up where a final
// phase's outputs live, so a single-phase job must leave the locality
// registry empty while it runs, not only once ForgetJob has swept it.
func TestFinalPhaseRecordsNoLocality(t *testing.T) {
	var e *env
	finishes := 0
	e = newEnv(t, 2, 2, Options{OnEvent: func(ev Event) {
		if ev.Type != EventAttemptFinish {
			return
		}
		finishes++
		// Every earlier finish of the phase has been through onFinish.
		if n := e.d.loc.Phases(); n != 0 {
			t.Errorf("finish %d: registry tracks %d phases of a single-phase job, want 0", finishes, n)
		}
	}})
	e.mustSubmit(t, chain(t, 1, "single", 5, []dag.PhaseSpec{{Durations: durations(1, 2, 3, 4)}}))
	e.mustRun(t)
	if finishes != 4 {
		t.Fatalf("saw %d attempt finishes, want 4", finishes)
	}
	if n := e.d.loc.Phases(); n != 0 {
		t.Errorf("registry tracks %d phases after the run, want 0", n)
	}
}

// TestDownstreamPrefsUnchangedBySkippingFinalPhases replays every attempt
// finish — final phases included, as the driver used to record them — into a
// shadow registry and requires each downstream phase to read the same narrow
// and wide preferences from the driver's own registry at its barrier, with
// and without a node failure evicting records in between.
func TestDownstreamPrefsUnchangedBySkippingFinalPhases(t *testing.T) {
	for _, tc := range []struct {
		name       string
		failNode   bool
		finalPrefs int // slots the pipeline's last phase prefers
	}{
		{name: "plain", finalPrefs: 4},
		{name: "node failure", failNode: true, finalPrefs: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Job 1 is the 3-phase chain under test: 4 -> 4 is a narrow
			// dependency, 4 -> 2 a wide one. Job 2 joins two upstream
			// phases; job 3 is single-phase competition.
			pipeline := chain(t, 1, "pipeline", 10, []dag.PhaseSpec{
				{Durations: durations(1, 1, 1, 1)},
				{Durations: durations(1, 1, 5, 5)},
				{Durations: durations(2, 2)},
			})
			diamond, err := dag.NewJob(2, "diamond", 5, []dag.PhaseSpec{
				{Durations: durations(2, 2, 2)},
				{Durations: durations(3, 1), Deps: []int{0}},
				{Durations: durations(1, 1, 1), Deps: []int{0, 1}},
			}, dag.WithSubmit(sec(0.5)))
			if err != nil {
				t.Fatal(err)
			}
			filler := chain(t, 3, "filler", 1, []dag.PhaseSpec{{Durations: durations(4, 4, 4, 4, 4, 4)}},
				dag.WithSubmit(sec(1.5)))
			jobs := map[dag.JobID]*dag.Job{1: pipeline, 2: diamond, 3: filler}

			shadow := cluster.NewLocalityRegistry()
			var e *env
			var narrow, wide int
			var pipelineFinal []cluster.SlotID
			e = newEnv(t, 4, 2, Options{Mode: ModeSSR, SSR: core.DefaultConfig(), OnEvent: func(ev Event) {
				job := jobs[ev.Job]
				switch ev.Type {
				case EventAttemptFinish:
					shadow.Record(cluster.PhaseKey{Job: ev.Job, Phase: ev.Phase}, ev.Task,
						job.Phase(ev.Phase).Parallelism(), ev.Slot)
				case EventPhaseStart:
					gotN, gotOK := e.d.loc.NarrowPrefs(job, ev.Phase)
					wantN, wantOK := shadow.NarrowPrefs(job, ev.Phase)
					if gotOK != wantOK || !reflect.DeepEqual(gotN, wantN) {
						t.Errorf("job %d phase %d: NarrowPrefs = %v,%v, want %v,%v",
							ev.Job, ev.Phase, gotN, gotOK, wantN, wantOK)
					}
					got, want := e.d.loc.PreferredSlots(job, ev.Phase), shadow.PreferredSlots(job, ev.Phase)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("job %d phase %d: PreferredSlots = %v, want %v", ev.Job, ev.Phase, got, want)
					}
					if wantOK {
						narrow++
					}
					if len(want) > 0 {
						wide++
					}
					if ev.Job == 1 && ev.Phase == 2 {
						pipelineFinal = want
					}
				case EventJobDone:
					shadow.ForgetJob(ev.Job)
				}
			}})
			if tc.failNode {
				// t=3: pipeline tasks 0 and 1 of phase 1 finished at t=2 on
				// node 0 (slots 0, 1); their outputs are lost with it.
				e.eng.At(sec(3), func() {
					shadow.EvictSlots(e.cl.NodeSlots(0))
					if err := e.d.FailNode(0); err != nil {
						t.Errorf("FailNode: %v", err)
					}
				})
			}
			e.mustSubmit(t, pipeline, diamond, filler)
			e.mustRun(t)

			if narrow == 0 || wide < 3 {
				t.Errorf("compared %d narrow and %d non-empty wide preferences; the scenario lost its coverage", narrow, wide)
			}
			if len(pipelineFinal) != tc.finalPrefs {
				t.Errorf("pipeline's last phase prefers %v, want %d slots", pipelineFinal, tc.finalPrefs)
			}
			if n := e.d.loc.Phases(); n != 0 {
				t.Errorf("registry tracks %d phases after every job ended, want 0", n)
			}
		})
	}
}
