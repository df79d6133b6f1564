package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"ssr/internal/dag"
	"ssr/internal/service"
	"ssr/internal/stats"
	"ssr/internal/workload"
)

const (
	fgPriority = dag.Priority(10)
	bgPriority = dag.Priority(1)
)

// sizes are the input dimensions at a given -scale. Scale 1 is the issue's
// full size; below 0.5 the offline cell drops to the repository's quick
// environment (100 nodes, 400 background jobs) and every count shrinks
// proportionally, which is what the smoke tests run.
type sizes struct {
	simNodes, simSlots int
	simBg              workload.BackgroundConfig
	sqlScale           int
	// simStatReps is how many leading replications feed the simulated
	// statistics and the retained-heap figure.
	simStatReps int
	// simObservedCheck is how many leading sim-observed cells are re-run
	// bare for the passivity check.
	simObservedCheck int

	svcNodes, svcSlots int
	svcSegmentJobs     int
	svcWarmJobs        int
	// simWarm, svcWarm and httpWarm are how long the warm-up of a set-up
	// lasts: stepping the first cell, or a closed loop of submissions. They
	// are times, not counts, so that setup_s — which the contract gates and
	// this machine's timing noise would otherwise swing by a third — is
	// input synthesis, construction or process start, health wait and a
	// constant.
	simWarm, svcWarm, httpWarm time.Duration
	retainedJobs               int // service.list_page_ns_tail100k's standing history
	ladderJobs                 int
	openRate                   float64 // open-loop tail, jobs per second
}

func sizesFor(scale float64) sizes {
	n := func(full, min int) int {
		v := int(math.Round(float64(full) * scale))
		if v < min {
			v = min
		}
		return v
	}
	s := sizes{
		simNodes: 1000, simSlots: 4,
		simBg: workload.BackgroundConfig{
			Jobs:           8000,
			Window:         20 * time.Minute,
			MeanTask:       150 * time.Second,
			Alpha:          1.6,
			DurationScale:  1,
			MaxParallelism: 60,
		},
		sqlScale:         4,
		simStatReps:      8,
		simObservedCheck: 2,
		svcNodes:         64, svcSlots: 4,
		svcSegmentJobs: n(40000, 400),
		svcWarmJobs:    n(5000, 100),
		simWarm:        150 * time.Millisecond,
		svcWarm:        100 * time.Millisecond,
		httpWarm:       250 * time.Millisecond,
		retainedJobs:   n(100000, 1000),
		ladderJobs:     n(12000, 200),
		openRate:       2000,
	}
	if scale < 0.5 {
		s.simNodes = 100
		s.simBg.Jobs = 400
		s.simBg.Window = 10 * time.Minute
		s.simBg.MeanTask = 50 * time.Second
		s.sqlScale = 1
		s.simStatReps = 3
		s.simObservedCheck = 1
		s.openRate = 500
		s.simWarm = 10 * time.Millisecond
		s.svcWarm = 20 * time.Millisecond
		s.httpWarm = 50 * time.Millisecond
	}
	return s
}

// simCell is one replication's inputs: the foreground suites and the
// background batch, all drawn from labelled substreams of the cell's seed.
type simCell struct {
	fg, bg []*dag.Job
}

func (c simCell) jobs() int { return len(c.fg) + len(c.bg) }

// buildSimCell synthesises replication r of the Sec. VI-B cell. dag.Job is
// immutable, so one cell may be run through several drivers.
func buildSimCell(sz sizes, seed int64, r int) (simCell, error) {
	cellSeed := stats.SubSeed(seed, "sim-rep", r)
	var c simCell
	at := sz.simBg.Window / 4
	id := dag.JobID(1)
	for i, spec := range workload.MLSuite() {
		j, err := spec.Build(id, fgPriority, at, stats.SubStream(cellSeed, "fg-"+spec.Name, i))
		if err != nil {
			return c, err
		}
		c.fg = append(c.fg, j)
		id++
		at += 20 * time.Second
	}
	for i, q := range workload.SQLQueries(sz.sqlScale) {
		j, err := q.Build(id, fgPriority, at, stats.SubStream(cellSeed, "fg-"+q.Name, i))
		if err != nil {
			return c, err
		}
		c.fg = append(c.fg, j)
		id++
		at += 10 * time.Second
	}
	bg, err := workload.Background(sz.simBg, 10000, bgPriority, stats.Stream(cellSeed, "bg"))
	if err != nil {
		return c, err
	}
	c.bg = bg
	return c, nil
}

// onlineMix is the shared job mix of the three online workloads: 1024 specs
// cycled in order, pre-encoded for the HTTP loops.
type onlineMix struct {
	specs   []service.JobSpec
	encoded [][]byte
}

const onlineMixSize = 1024

// buildOnlineMix draws the mix from the seed: 80 % background (priority 1,
// one phase of 4 tasks), 20 % foreground (priority 10, three phases
// 4 → 6 → 2 tasks, so both Algorithm 1 branches n>m and n<m run); task
// durations Pareto(1.6) with mean 8 virtual seconds clamped to [2 s, 120 s].
// The seed decides which positions are foreground and every duration, but
// the foreground share is exactly a fifth under every seed, so per-job counts
// (allocations, retained bytes, events) compare across seeds.
// Everything runs under the default tenant: two active tenants would turn
// saturation into designed 429 shedding, which the contract counts as
// failures.
func buildOnlineMix(seed int64) (*onlineMix, error) {
	rng := stats.Stream(seed, "online-mix")
	dist, err := stats.ParetoWithMean(1.6, 8)
	if err != nil {
		return nil, err
	}
	draw := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Min(120, math.Max(2, dist.Sample(rng))) * 1000
		}
		return out
	}
	foreground := make([]bool, onlineMixSize)
	for _, i := range rng.Perm(onlineMixSize)[:onlineMixSize/5] {
		foreground[i] = true
	}
	m := &onlineMix{}
	for i := 0; i < onlineMixSize; i++ {
		var spec service.JobSpec
		if foreground[i] {
			spec = service.JobSpec{
				Name:     fmt.Sprintf("fg-%d", i),
				Priority: int(fgPriority),
				Class:    "foreground",
				Phases: []service.PhaseSpec{
					{DurationsMs: draw(4)},
					{DurationsMs: draw(6), Deps: []int{0}},
					{DurationsMs: draw(2), Deps: []int{1}},
				},
			}
		} else {
			spec = service.JobSpec{
				Name:     fmt.Sprintf("bg-%d", i),
				Priority: int(bgPriority),
				Class:    "background",
				Phases:   []service.PhaseSpec{{DurationsMs: draw(4)}},
			}
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		m.specs = append(m.specs, spec)
		m.encoded = append(m.encoded, body)
	}
	return m, nil
}

// job builds spec i of the mix as the dag.Job the service would build for it
// (service.JobSpec's own builder is unexported), for the rungs of the cost
// ladder that bypass the service.
func (m *onlineMix) job(i int, id dag.JobID, submit time.Duration) (*dag.Job, error) {
	spec := m.specs[i%onlineMixSize]
	phases := make([]dag.PhaseSpec, len(spec.Phases))
	for p, ph := range spec.Phases {
		ds := make([]time.Duration, len(ph.DurationsMs))
		for t, ms := range ph.DurationsMs {
			ds[t] = time.Duration(ms * float64(time.Millisecond))
		}
		phases[p] = dag.PhaseSpec{Durations: ds, Deps: ph.Deps}
	}
	class := dag.Foreground
	if spec.Class == "background" {
		class = dag.Background
	}
	return dag.NewJob(id, spec.Name, dag.Priority(spec.Priority), phases,
		dag.WithSubmit(submit), dag.WithClass(class), dag.WithTenant("default"))
}
