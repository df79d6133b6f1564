package shard

import (
	"fmt"
	"testing"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/driver"
	"ssr/internal/metrics"
	"ssr/internal/sim"
	"ssr/internal/stats"
	"ssr/internal/workload"
)

// goldenSeed fixes every golden run's workload.
const goldenSeed = 606

const (
	goldenFg = dag.Priority(10)
	goldenBg = dag.Priority(1)
)

// TestOfflineFingerprints runs the paper's Sec. VI-B background-contention
// cell (ML suite against a background batch, SSR reserving for the
// foreground class only) standalone and through K-shard federations with
// cross-shard lending, and compares each run's event count, makespan, job
// count and summed JCT with a committed literal. A change that moves any of
// them changed a scheduling decision; if that is intended, update the
// literal in the same change.
func TestOfflineFingerprints(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(*testing.T) string
		want string
	}{
		{"offline_step_1000", runOfflineStep,
			"events=6894 makespan=26m37.142416492s jobs=303 jctsum=10h39m24.336276404s"},
		{"federation_k4", func(t *testing.T) string { return runFederation(t, 4) },
			"events=4358 makespan=16m27.198024473s jobs=163 jctsum=5h15m15.298620374s"},
		{"federation_k16", func(t *testing.T) string { return runFederation(t, 16) },
			"events=4358 makespan=19m20.549930227s jobs=163 jctsum=6h37m28.173834538s"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(t); got != c.want {
				t.Errorf("fingerprint moved:\n  got:  %s\n  want: %s", got, c.want)
			}
		})
	}
}

// goldenOpts mirrors the large-scale experiment configuration: SSR with
// reservation for the foreground class only, 3s locality wait, 5x miss
// penalty.
func goldenOpts() driver.Options {
	return driver.Options{
		Mode:               driver.ModeSSR,
		SSR:                core.DefaultConfig(),
		ReserveMinPriority: goldenFg,
		LocalityWait:       3 * time.Second,
		LocalityFactor:     5,
	}
}

// offlineWorkload builds the foreground ML suite plus a 300-job background
// batch.
func offlineWorkload(t *testing.T) (fg, bg []*dag.Job) {
	bgCfg := workload.BackgroundConfig{
		Jobs:           300,
		Window:         6 * time.Minute,
		MeanTask:       40 * time.Second,
		Alpha:          1.6,
		DurationScale:  1,
		MaxParallelism: 40,
	}
	at := bgCfg.Window / 4
	for i, spec := range workload.MLSuite() {
		j, err := spec.Build(dag.JobID(i+1), goldenFg, at,
			stats.SubStream(goldenSeed, "bench-fg-"+spec.Name, i))
		if err != nil {
			t.Fatal(err)
		}
		fg = append(fg, j)
		at += 20 * time.Second
	}
	bg, err := workload.Background(bgCfg, 10000, goldenBg,
		stats.Stream(goldenSeed, "bench-bg"))
	if err != nil {
		t.Fatal(err)
	}
	return fg, bg
}

// runOfflineStep simulates offlineWorkload on one 100-node, 400-slot
// cluster.
func runOfflineStep(t *testing.T) string {
	fg, bg := offlineWorkload(t)
	eng := sim.New()
	cl, err := cluster.New(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := driver.New(eng, cl, goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range append(fg, bg...) {
		if err := d.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	return offlineFingerprint(eng.Events(), d.Makespan(), d.Results())
}

// offlineFingerprint condenses a finished offline run into one string.
func offlineFingerprint(events uint64, makespan time.Duration, results []metrics.JobStats) string {
	var jct time.Duration
	for _, st := range results {
		jct += st.JCT()
	}
	return fmt.Sprintf("events=%d makespan=%s jobs=%d jctsum=%s",
		events, makespan, len(results), jct)
}

// runFederation runs the same class of workload through a K-shard
// federation of 48 nodes with cross-shard lending. Its event count is the
// sum over the shards' engines.
func runFederation(t *testing.T, k int) string {
	fed, err := New(Options{Shards: k, Nodes: 48, SlotsPerNode: 4, Driver: goldenOpts()})
	if err != nil {
		t.Fatal(err)
	}
	window := 5 * time.Minute
	var jobs []*dag.Job
	at := window / 4
	for i, spec := range workload.MLSuite() {
		j, err := spec.Build(dag.JobID(i+1), goldenFg, at,
			stats.SubStream(goldenSeed, "bench-fed-fg-"+spec.Name, i))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		at += 15 * time.Second
	}
	bg, err := workload.Background(workload.BackgroundConfig{
		Jobs:           160,
		Window:         window,
		MeanTask:       30 * time.Second,
		Alpha:          1.6,
		DurationScale:  1,
		MaxParallelism: 40,
	}, 10000, goldenBg, stats.Stream(goldenSeed, "bench-fed-bg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range append(jobs, bg...) {
		if _, err := fed.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.Run(); err != nil {
		t.Fatal(err)
	}
	var events uint64
	for _, sh := range fed.Shards() {
		events += sh.Eng.Events()
	}
	return offlineFingerprint(events, fed.Makespan(), fed.Results())
}
