package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"ssr/internal/cluster"
	"ssr/internal/dag"
)

func TestSlowdown(t *testing.T) {
	if got := Slowdown(20*time.Second, 10*time.Second); got != 2 {
		t.Errorf("Slowdown = %v, want 2", got)
	}
	if got := Slowdown(10*time.Second, 10*time.Second); got != 1 {
		t.Errorf("Slowdown = %v, want 1", got)
	}
	if got := Slowdown(10*time.Second, 0); got != 0 {
		t.Errorf("Slowdown with zero baseline = %v, want 0", got)
	}
}

type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func TestSlotUsageIntegration(t *testing.T) {
	clock := &fakeClock{}
	u := NewSlotUsage(4, clock.now)
	l := u.Listener()

	// t=0: slot 0 goes busy.
	l(0, cluster.Free, cluster.Busy)
	clock.t = 10 * time.Second
	// t=10: slot 0 busy -> reserved; slot 1 goes busy.
	l(0, cluster.Busy, cluster.Reserved)
	l(1, cluster.Free, cluster.Busy)
	clock.t = 15 * time.Second
	// t=15: slot 0 reserved -> free.
	l(0, cluster.Reserved, cluster.Free)
	clock.t = 20 * time.Second

	// Busy: slot0 for 10s + slot1 for 10s = 20 slot-seconds.
	if got, want := u.BusyTime(), 20*time.Second; got != want {
		t.Errorf("BusyTime = %v, want %v", got, want)
	}
	// Reserved: slot0 from 10 to 15 = 5 slot-seconds.
	if got, want := u.ReservedIdleTime(), 5*time.Second; got != want {
		t.Errorf("ReservedIdleTime = %v, want %v", got, want)
	}
	// Utilization over 20s horizon with 4 slots: 20/(20*4) = 0.25.
	if got := u.Utilization(20 * time.Second); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Utilization = %v, want 0.25", got)
	}
	if got := u.ReservedFraction(20 * time.Second); math.Abs(got-5.0/80.0) > 1e-12 {
		t.Errorf("ReservedFraction = %v, want 0.0625", got)
	}
}

// TestSlotUsageFailedTransitions covers every transition into and out of
// the Failed state: a failing busy or reserved slot must stop accruing its
// slot-time immediately, and recovery (Failed -> Free) must not resurrect
// any accrual.
func TestSlotUsageFailedTransitions(t *testing.T) {
	clock := &fakeClock{}
	u := NewSlotUsage(4, clock.now)
	l := u.Listener()

	// t=0: slot 0 busy, slot 1 reserved, slot 2 free.
	l(0, cluster.Free, cluster.Busy)
	l(1, cluster.Free, cluster.Reserved)
	clock.t = 10 * time.Second
	// t=10: the node hosting slots 0-2 fails.
	l(0, cluster.Busy, cluster.Failed)
	l(1, cluster.Reserved, cluster.Failed)
	l(2, cluster.Free, cluster.Failed)
	if u.BusySlots() != 0 || u.ReservedIdleSlots() != 0 {
		t.Errorf("gauges after failure = busy %d reserved %d, want 0/0",
			u.BusySlots(), u.ReservedIdleSlots())
	}
	clock.t = 25 * time.Second
	// Accrual stopped at the failure: 10s busy, 10s reserved.
	if got, want := u.BusyTime(), 10*time.Second; got != want {
		t.Errorf("BusyTime = %v, want %v (failed slot kept accruing)", got, want)
	}
	if got, want := u.ReservedIdleTime(), 10*time.Second; got != want {
		t.Errorf("ReservedIdleTime = %v, want %v (failed slot kept accruing)", got, want)
	}
	// t=25: recovery. Failed -> Free is accrual-neutral.
	l(0, cluster.Failed, cluster.Free)
	l(1, cluster.Failed, cluster.Free)
	l(2, cluster.Failed, cluster.Free)
	clock.t = 30 * time.Second
	if got, want := u.BusyTime(), 10*time.Second; got != want {
		t.Errorf("BusyTime after recovery = %v, want %v", got, want)
	}
	// t=30: a recovered slot goes busy again and accrues normally.
	l(0, cluster.Free, cluster.Busy)
	clock.t = 33 * time.Second
	if got, want := u.BusyTime(), 13*time.Second; got != want {
		t.Errorf("BusyTime after re-busy = %v, want %v", got, want)
	}
	if u.BusySlots() != 1 {
		t.Errorf("BusySlots = %d, want 1", u.BusySlots())
	}
}

// TestSlotUsageTracksClusterCensus mirrors the cluster package's
// partition-style fault tests: the integrator's gauges, fed only by the
// state listener, must match a direct census of the cluster through an
// acquire/reserve/fail/recover cycle.
func TestSlotUsageTracksClusterCensus(t *testing.T) {
	clock := &fakeClock{}
	c, err := cluster.New(2, 2) // slots 0,1 on node 0; 2,3 on node 1
	if err != nil {
		t.Fatal(err)
	}
	u := NewSlotUsage(c.NumSlots(), clock.now)
	c.SetListener(u.Listener())
	check := func(step string) {
		t.Helper()
		busy, reserved := c.CountState(cluster.Busy), c.CountState(cluster.Reserved)
		if u.BusySlots() != busy || u.ReservedIdleSlots() != reserved {
			t.Fatalf("%s: gauges busy %d reserved %d, cluster census %d/%d",
				step, u.BusySlots(), u.ReservedIdleSlots(), busy, reserved)
		}
		free, failed := c.CountState(cluster.Free), c.CountState(cluster.Failed)
		if free+reserved+busy+failed != c.NumSlots() {
			t.Fatalf("%s: census %d+%d+%d+%d != %d slots",
				step, free, reserved, busy, failed, c.NumSlots())
		}
	}

	if _, ok := c.AcquireFree(1); !ok {
		t.Fatal("AcquireFree failed")
	}
	if err := c.Reserve(1, cluster.Reservation{Job: 7, Priority: 5}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.AcquireFree(1); !ok {
		t.Fatal("second AcquireFree failed")
	}
	check("after acquire+reserve")

	clock.t = 5 * time.Second
	if _, _, err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	check("after node 0 failure")

	clock.t = 8 * time.Second
	if _, err := c.RecoverNode(0); err != nil {
		t.Fatal(err)
	}
	check("after node 0 recovery")

	clock.t = 10 * time.Second
	// Slot-time stopped for node 0's busy and reserved slots at t=5; the
	// survivor on node 1 accrued the full 10s.
	if got, want := u.BusyTime(), 15*time.Second; got != want {
		t.Errorf("BusyTime = %v, want %v", got, want)
	}
	if got, want := u.ReservedIdleTime(), 5*time.Second; got != want {
		t.Errorf("ReservedIdleTime = %v, want %v", got, want)
	}
}

func TestSlotUsageZeroHorizon(t *testing.T) {
	clock := &fakeClock{}
	u := NewSlotUsage(4, clock.now)
	if u.Utilization(0) != 0 || u.ReservedFraction(-time.Second) != 0 {
		t.Error("degenerate horizons should yield 0")
	}
}

func TestTimelineRecordAndAt(t *testing.T) {
	clock := &fakeClock{}
	tl := NewTimeline(clock.now)
	job := dag.JobID(1)
	tl.Record(job, 4)
	clock.t = 10 * time.Second
	tl.Record(job, 2)
	clock.t = 20 * time.Second
	tl.Record(job, 0)

	tests := []struct {
		at   time.Duration
		want int
	}{
		{at: 0, want: 4},
		{at: 5 * time.Second, want: 4},
		{at: 10 * time.Second, want: 2},
		{at: 15 * time.Second, want: 2},
		{at: 25 * time.Second, want: 0},
		{at: -time.Second, want: 0},
	}
	for _, tt := range tests {
		if got := tl.At(job, tt.at); got != tt.want {
			t.Errorf("At(%v) = %d, want %d", tt.at, got, tt.want)
		}
	}
	if tl.At(99, 0) != 0 {
		t.Error("unknown job should read 0")
	}
	if tl.Jobs() != 1 {
		t.Errorf("Jobs = %d, want 1", tl.Jobs())
	}
}

func TestTimelineCollapsesDuplicates(t *testing.T) {
	clock := &fakeClock{}
	tl := NewTimeline(clock.now)
	tl.Record(1, 3)
	clock.t = time.Second
	tl.Record(1, 3) // same value: dropped
	if got := len(tl.Series(1)); got != 1 {
		t.Errorf("series length = %d, want 1", got)
	}
	// Two changes at the same instant keep the last.
	tl.Record(1, 5)
	tl.Record(1, 7)
	s := tl.Series(1)
	if len(s) != 2 || s[1].V != 7 {
		t.Errorf("series = %v, want last value 7 at 1s", s)
	}
	// Change at same instant back to the previous value collapses away.
	tl.Record(1, 3)
	s = tl.Series(1)
	if len(s) != 1 || s[0].V != 3 {
		t.Errorf("series = %v, want single step of 3", s)
	}
}

func TestTimelineSeriesIsCopy(t *testing.T) {
	clock := &fakeClock{}
	tl := NewTimeline(clock.now)
	tl.Record(1, 3)
	s := tl.Series(1)
	s[0].V = 99
	if tl.At(1, 0) != 3 {
		t.Error("Series should return a copy")
	}
}

func TestTimelineIntegral(t *testing.T) {
	clock := &fakeClock{}
	tl := NewTimeline(clock.now)
	tl.Record(1, 4) // 4 from t=0
	clock.t = 10 * time.Second
	tl.Record(1, 2) // 2 from t=10
	clock.t = 20 * time.Second
	tl.Record(1, 0) // 0 from t=20

	// Whole window: 4*10 + 2*10 = 60 slot-seconds.
	if got, want := tl.Integral(1, 0, 30*time.Second), 60*time.Second; got != want {
		t.Errorf("Integral = %v, want %v", got, want)
	}
	// Partial window straddling a step: [5, 15) = 4*5 + 2*5 = 30.
	if got, want := tl.Integral(1, 5*time.Second, 15*time.Second), 30*time.Second; got != want {
		t.Errorf("Integral = %v, want %v", got, want)
	}
	// Empty and inverted windows.
	if tl.Integral(1, 5*time.Second, 5*time.Second) != 0 {
		t.Error("empty window should integrate to 0")
	}
	if tl.Integral(1, 10*time.Second, 5*time.Second) != 0 {
		t.Error("inverted window should integrate to 0")
	}
}

func TestJobStats(t *testing.T) {
	j, err := dag.Chain(1, "stat", 1, []dag.PhaseSpec{
		{Durations: []time.Duration{time.Second}},
	})
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	s := JobStats{Job: j, Submit: 2 * time.Second, Finish: 12 * time.Second}
	if got, want := s.JCT(), 10*time.Second; got != want {
		t.Errorf("JCT = %v, want %v", got, want)
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
}

// TestSlotUsageFinish pins the integrals at end-of-run: a fully busy run
// reads utilization exactly 1.0, and reads after Finish cannot stretch the
// horizon even when the clock keeps moving.
func TestSlotUsageFinish(t *testing.T) {
	clock := &fakeClock{}
	u := NewSlotUsage(2, clock.now)
	l := u.Listener()

	// Both slots busy for the whole 10s run.
	l(0, cluster.Free, cluster.Busy)
	l(1, cluster.Free, cluster.Busy)
	clock.t = 10 * time.Second
	u.Finish(clock.t)

	if got := u.Utilization(10 * time.Second); got != 1.0 {
		t.Errorf("fully busy run: Utilization = %v, want exactly 1.0", got)
	}
	// The clock drifting past the run (a scrape after the engine stopped)
	// must not accrue more slot-time.
	clock.t = 100 * time.Second
	if got, want := u.BusyTime(), 20*time.Second; got != want {
		t.Errorf("BusyTime after Finish = %v, want %v", got, want)
	}
	if got := u.Utilization(10 * time.Second); got != 1.0 {
		t.Errorf("Utilization after clock drift = %v, want exactly 1.0", got)
	}
	// Finishing twice is a no-op.
	u.Finish(200 * time.Second)
	if got, want := u.BusyTime(), 20*time.Second; got != want {
		t.Errorf("BusyTime after double Finish = %v, want %v", got, want)
	}
}

// refTimeline is the slice-per-job implementation Timeline replaced, kept
// verbatim as the oracle of the differential test below.
type refTimeline struct {
	now    func() time.Duration
	series map[dag.JobID][]Point
}

func (tl *refTimeline) Record(job dag.JobID, v int) {
	s := tl.series[job]
	t := tl.now()
	if n := len(s); n > 0 {
		if s[n-1].V == v {
			return
		}
		if s[n-1].T == t {
			s[n-1].V = v
			if n > 1 && s[n-2].V == v {
				s = s[:n-1]
			}
			tl.series[job] = s
			return
		}
	}
	tl.series[job] = append(s, Point{T: t, V: v})
}

func (tl *refTimeline) Series(job dag.JobID) []Point {
	return append([]Point(nil), tl.series[job]...)
}

func (tl *refTimeline) At(job dag.JobID, t time.Duration) int {
	v := 0
	for _, p := range tl.series[job] {
		if p.T > t {
			break
		}
		v = p.V
	}
	return v
}

func (tl *refTimeline) Integral(job dag.JobID, from, to time.Duration) time.Duration {
	if to <= from {
		return 0
	}
	var total time.Duration
	cur := 0
	last := from
	for _, p := range tl.series[job] {
		if p.T <= from {
			cur = p.V
			continue
		}
		if p.T >= to {
			break
		}
		total += time.Duration(cur) * (p.T - last)
		cur = p.V
		last = p.T
	}
	total += time.Duration(cur) * (to - last)
	return total
}

// TestTimelineMatchesSliceReference drives the block-chain store and the
// slice reference with the same 10k seeded (job, t, v) sequences — weighted
// toward repeated instants, equal values and A->B->A at one instant, with
// series lengths on both sides of block and slab boundaries — and requires
// every read to agree exactly.
func TestTimelineMatchesSliceReference(t *testing.T) {
	records := 0
	for seed := int64(0); seed < 10000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := &fakeClock{}
		got := NewTimeline(clock.now)
		ref := &refTimeline{now: clock.now, series: make(map[dag.JobID][]Point)}

		// Most sequences are a few jobs whose series end within a block or
		// two of a block boundary; every 1000th stores more than a slab's
		// worth of blocks over hundreds of jobs.
		jobs := 1 + rng.Intn(3)
		ops := rng.Intn(12 * blockPoints)
		if seed%1000 == 0 {
			jobs = 400 + rng.Intn(400)
			ops = 4 * blockPoints * slabBlocks
		}
		stay := 0.3 + 0.5*rng.Float64() // chance the clock does not move

		check := func(job dag.JobID) {
			t.Helper()
			if g, w := got.Series(job), ref.Series(job); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d job %d: Series = %v, want %v", seed, job, g, w)
			}
		}
		for i := 0; i < ops; i++ {
			if rng.Float64() >= stay {
				clock.t += time.Duration(1+rng.Intn(3)) * time.Second
			}
			job := dag.JobID(rng.Intn(jobs))
			s := ref.series[job]
			v := rng.Intn(4)
			switch r := rng.Intn(8); {
			case r == 0 && len(s) > 0:
				v = s[len(s)-1].V // equal value: dropped
			case r <= 2 && len(s) > 1:
				v = s[len(s)-2].V // back to the predecessor: collapses at one instant
			}
			got.Record(job, v)
			ref.Record(job, v)
			records++
			if len(s) < 4*blockPoints || i%16 == 0 {
				check(job)
			}
		}

		if got.Jobs() != len(ref.series) {
			t.Fatalf("seed %d: Jobs = %d, want %d", seed, got.Jobs(), len(ref.series))
		}
		end := clock.t + 2*time.Second
		for id := -1; id <= jobs; id++ { // -1 and jobs were never recorded
			job := dag.JobID(id)
			check(job)
			probes := []time.Duration{-time.Second, 0, end}
			if s := ref.series[job]; len(s) > 0 {
				probes = append(probes, s[0].T-1, s[0].T, s[len(s)-1].T, s[len(s)-1].T+1)
			}
			for k := 0; k < 8; k++ {
				probes = append(probes, time.Duration(rng.Int63n(int64(end))))
			}
			for _, at := range probes {
				if g, w := got.At(job, at), ref.At(job, at); g != w {
					t.Fatalf("seed %d job %d: At(%v) = %d, want %d", seed, job, at, g, w)
				}
			}
			for k := 0; k < 8; k++ {
				from := time.Duration(rng.Int63n(int64(end))) - time.Second
				to := from + time.Duration(rng.Int63n(int64(end)))
				if k == 0 {
					from, to = to, from // inverted window
				}
				if g, w := got.Integral(job, from, to), ref.Integral(job, from, to); g != w {
					t.Fatalf("seed %d job %d: Integral(%v, %v) = %v, want %v", seed, job, from, to, g, w)
				}
			}
		}
	}
	t.Logf("%d records compared", records)
}

// TestTimelineCollapseAcrossBlocks pins the one structural corner of the
// block chain: a same-instant collapse that pops the only point of the tail
// block must step back to the previous block, and the next append must land
// where the popped point was.
func TestTimelineCollapseAcrossBlocks(t *testing.T) {
	clock := &fakeClock{}
	tl := NewTimeline(clock.now)
	var want []Point
	for i := 0; i < blockPoints; i++ { // fill the first block: 1, 2, ..., 7
		clock.t = time.Duration(i) * time.Second
		tl.Record(1, i+1)
		want = append(want, Point{T: clock.t, V: i + 1})
	}
	clock.t = time.Duration(blockPoints) * time.Second
	tl.Record(1, 100)         // first point of the second block
	tl.Record(1, blockPoints) // same instant, back to the predecessor: popped
	if got := tl.Series(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("after collapse: Series = %v, want %v", got, want)
	}
	if got := tl.At(1, clock.t); got != blockPoints {
		t.Errorf("At after collapse = %d, want %d", got, blockPoints)
	}
	carved := len(tl.slab)
	tl.Record(1, 9)
	want = append(want, Point{T: clock.t, V: 9})
	if len(tl.slab) != carved {
		t.Errorf("re-append carved a new block; the emptied one should take it")
	}
	clock.t += time.Second
	tl.Record(1, 0)
	want = append(want, Point{T: clock.t, V: 0})
	if got := tl.Series(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("after re-append: Series = %v, want %v", got, want)
	}
}

// TestTimelineAllocatesPerSlab is the allocation guard: recording is paid per
// slab of blocks (plus the growth of the job map), never per job or per
// point.
func TestTimelineAllocatesPerSlab(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	const jobs, perJob = 2000, 3 * blockPoints
	clock := &fakeClock{}
	tl := NewTimeline(clock.now)
	for j := 0; j < jobs; j++ { // the map reaches its final size here, off the count
		tl.Record(dag.JobID(j), 1)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 1; i < perJob; i++ {
		clock.t += time.Second
		for j := 0; j < jobs; j++ {
			tl.Record(dag.JobID(j), 1+i%2)
		}
	}
	runtime.ReadMemStats(&m1)
	blocks := jobs * perJob / blockPoints
	if got, max := m1.Mallocs-m0.Mallocs, uint64(blocks/slabBlocks+8); got > max {
		t.Errorf("%d points over %d jobs cost %d mallocs, want <= %d (one per slab)", jobs*perJob, jobs, got, max)
	}
	pointBytes := uint64(jobs * perJob * int(unsafe.Sizeof(Point{})))
	if got := m1.TotalAlloc - m0.TotalAlloc; got > pointBytes*13/10 {
		t.Errorf("%d B of points cost %d B allocated, want <= 1.3x", pointBytes, got)
	}
}
