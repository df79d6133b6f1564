package service

import (
	"context"
	"testing"
	"time"

	"ssr/internal/core"
	"ssr/internal/driver"
	"ssr/internal/shard"
)

// waitAllTerminal polls the job list until every admitted job is terminal.
func waitAllTerminal(t *testing.T, svc *Service, want int, timeout time.Duration) []JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		list, err := svc.ListPage(0, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		done := 0
		for _, st := range list.Jobs {
			if TerminalState(st.State) {
				done++
			}
		}
		if len(list.Jobs) == want && done == want {
			return list.Jobs
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs terminal at deadline", done, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceSharded runs a 4-shard service end to end: jobs spread over
// the partitions, every one completes, the federated /metrics view carries
// a consistent per-shard breakdown, events are shard-tagged, and the
// dropped-subscribers gauge surfaces bus drops.
func TestServiceSharded(t *testing.T) {
	const jobs = 40
	svc := newTestService(t, Config{
		Nodes:        8,
		SlotsPerNode: 2,
		Shards:       4,
		Dilation:     500,
		Driver:       ssrOptions(),
	})
	if svc.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", svc.NumShards())
	}

	// A subscriber that never reads: one event fills its buffer, the next
	// drops it, and the gauge must surface that on /metrics.
	_, lagger := svc.Subscribe(0, 1)
	defer lagger.Cancel()
	_, live := svc.Subscribe(0, 16*jobs)
	defer live.Cancel()

	names := make(map[int64]string)
	for i := 0; i < jobs; i++ {
		spec := tinySpec("sharded", 1+i%5)
		spec.Name = spec.Name + "-" + string(rune('a'+i%13)) + string(rune('a'+i%7))
		st, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		names[st.ID] = spec.Name
	}
	list := waitAllTerminal(t, svc, jobs, 30*time.Second)

	// Hash routing spread the jobs over more than one shard, and each
	// job's reported home is stable across queries.
	homes := make(map[int]int)
	for _, st := range list {
		if st.State != StateCompleted {
			t.Errorf("job %d state %q", st.ID, st.State)
		}
		homes[st.Shard]++
		got, found, err := svc.Status(st.ID)
		if err != nil || !found {
			t.Fatalf("status %d: %v found=%v", st.ID, err, found)
		}
		if got.Shard != st.Shard {
			t.Errorf("job %d home moved: %d then %d", st.ID, st.Shard, got.Shard)
		}
	}
	if len(homes) < 2 {
		t.Errorf("all %d jobs landed on one shard: %v", jobs, homes)
	}

	cs, err := svc.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumShards != 4 || cs.Nodes != 8 || cs.Slots != 16 || len(cs.SlotList) != 16 {
		t.Errorf("cluster view = %d shards, %d nodes, %d slots (%d listed)",
			cs.NumShards, cs.Nodes, cs.Slots, len(cs.SlotList))
	}
	slotShards := make(map[int]int)
	for _, ss := range cs.SlotList {
		slotShards[ss.Shard]++
	}
	for k := 0; k < 4; k++ {
		if slotShards[k] != 4 {
			t.Errorf("shard %d lists %d slots, want 4", k, slotShards[k])
		}
	}

	ms, err := svc.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumShards != 4 || len(ms.Shards) != 4 {
		t.Fatalf("metrics shards = %d (%d detailed), want 4", ms.NumShards, len(ms.Shards))
	}
	if ms.JobsSubmitted != jobs || ms.JobsCompleted != jobs || ms.JobsRunning != 0 {
		t.Errorf("job counters = %d submitted / %d completed / %d running",
			ms.JobsSubmitted, ms.JobsCompleted, ms.JobsRunning)
	}
	assigned, pending := 0, 0
	for _, sd := range ms.Shards {
		assigned += sd.JobsAssigned
		pending += sd.JobsPending
		if sd.Slots != 4 || sd.Nodes != 2 {
			t.Errorf("shard %d sized %d nodes x %d slots, want 2x4 total", sd.Shard, sd.Nodes, sd.Slots)
		}
	}
	if assigned != jobs || pending != 0 {
		t.Errorf("per-shard totals: %d assigned, %d pending, want %d / 0", assigned, pending, jobs)
	}
	if ms.DroppedSubscribers < 1 {
		t.Errorf("DroppedSubscribers = %d, want >= 1 (lagging subscriber)", ms.DroppedSubscribers)
	}

	// Events carry the originating shard, matching the job's home.
	live.Cancel()
	sawShards := make(map[int]bool)
	for ev := range live.C {
		if ev.Type != "job_done" {
			continue
		}
		sawShards[ev.Shard] = true
		for _, st := range list {
			if st.ID == ev.Job && st.Shard != ev.Shard {
				t.Errorf("job %d done event tagged shard %d, home %d", ev.Job, ev.Shard, st.Shard)
			}
		}
	}
	if len(sawShards) < 2 {
		t.Errorf("job_done events all from one shard: %v", sawShards)
	}
}

// TestServiceCrossShardLending exercises the asynchronous lending broker
// under the online service: a known-parallelism job whose downstream phase
// is wider than its home shard borrows sibling slots, runs remote tasks,
// and every loan is back home when the job ends.
func TestServiceCrossShardLending(t *testing.T) {
	svc := newTestService(t, Config{
		Nodes:        2,
		SlotsPerNode: 2,
		Shards:       2,
		Dilation:     100,
		Lending:      shard.LendingConfig{MaxLendFraction: 1.0},
		// R = 0.4 so finishing the first of two upstream tasks crosses the
		// pre-reservation threshold and the unmet quota spills to lending.
		Driver: driver.Options{
			Mode: driver.ModeSSR,
			SSR:  core.Config{Enabled: true, IsolationP: 0.9, Alpha: 1.1, PreReserveThreshold: 0.4},
		},
	})
	if svc.Broker() == nil {
		t.Fatal("sharded service should wire a lending broker")
	}

	// Phase 0: two long tasks (m = 2 home slots); phase 1: four tasks.
	// With known parallelism the tracker wants n = 4, so preWant = 2 spills
	// to the broker once the home shard cannot cover it.
	spec := JobSpec{
		Name:             "wide",
		Priority:         5,
		ParallelismKnown: true,
		Phases: []PhaseSpec{
			{DurationsMs: []float64{3000, 3600}},
			{DurationsMs: []float64{3000, 3000, 3000, 3000}, Deps: []int{0}},
		},
	}
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	list := waitAllTerminal(t, svc, 1, 30*time.Second)
	if list[0].State != StateCompleted {
		t.Fatalf("job ended %q", list[0].State)
	}

	final, _, err := svc.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.BorrowedSlots == 0 {
		t.Errorf("job borrowed no slots: %+v", final)
	}
	if final.RemoteTasks == 0 {
		t.Errorf("job ran no remote tasks: %+v", final)
	}
	ms, err := svc.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if ms.Lending == nil {
		t.Fatal("sharded metrics missing lending view")
	}
	if ms.Lending.Granted == 0 || ms.Lending.Granted != ms.Lending.Finished+ms.Lending.Returned {
		t.Errorf("lending ledger does not balance: %+v", *ms.Lending)
	}
	if ms.Lending.Outstanding != 0 {
		t.Errorf("%d loans still outstanding after the job ended", ms.Lending.Outstanding)
	}
	for _, sd := range ms.Shards {
		if sd.SlotsLent != 0 {
			t.Errorf("shard %d still lists %d slots lent", sd.Shard, sd.SlotsLent)
		}
	}
}

// TestServiceShardedDrain checks the drain protocol sweeps every shard:
// long jobs spread over shards are all aborted when the grace expires.
func TestServiceShardedDrain(t *testing.T) {
	svc := newTestService(t, Config{
		Nodes:        4,
		SlotsPerNode: 1,
		Shards:       2,
		Dilation:     50,
		Router:       shard.LeastLoadedRouter{},
		Driver:       ssrOptions(),
	})
	long := JobSpec{Name: "long", Priority: 1, Phases: []PhaseSpec{
		{DurationsMs: []float64{60000, 60000}},
	}}
	for i := 0; i < 4; i++ {
		if _, err := svc.Submit(long); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	aborted, err := svc.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if aborted != 4 {
		t.Errorf("drain aborted %d jobs, want 4", aborted)
	}
	if _, err := svc.Submit(long); err != ErrDraining {
		t.Errorf("submit during drain returned %v, want ErrDraining", err)
	}
	list, err := svc.ListPage(0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	shards := make(map[int]bool)
	for _, st := range list.Jobs {
		if st.State != StateFailed {
			t.Errorf("job %d state %q after drain", st.ID, st.State)
		}
		shards[st.Shard] = true
	}
	if len(shards) != 2 {
		t.Errorf("least-loaded routing used %d shards, want 2", len(shards))
	}
}
