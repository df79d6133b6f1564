package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func busEvent(job int64, typ string) Event {
	return Event{Type: typ, Job: job}
}

func TestBusSequencesAndReplay(t *testing.T) {
	b := NewBus(64)
	for i := 1; i <= 10; i++ {
		if seq := b.Publish(busEvent(int64(i), "job_start")); seq != uint64(i) {
			t.Fatalf("publish %d got seq %d", i, seq)
		}
	}
	if b.Published() != 10 {
		t.Errorf("Published = %d, want 10", b.Published())
	}
	replay, sub := b.Subscribe(4, 16)
	defer sub.Cancel()
	if len(replay) != 7 || replay[0].Seq != 4 || replay[6].Seq != 10 {
		t.Fatalf("replay since 4 = %d events [%v..]", len(replay), replay[0].Seq)
	}
	// Live delivery continues the sequence with no gap.
	b.Publish(busEvent(11, "job_done"))
	ev := <-sub.C
	if ev.Seq != 11 {
		t.Errorf("live event seq = %d, want 11", ev.Seq)
	}
}

func TestBusRingEviction(t *testing.T) {
	b := NewBus(4)
	for i := 1; i <= 10; i++ {
		b.Publish(busEvent(int64(i), "e"))
	}
	replay, sub := b.Subscribe(0, 1)
	sub.Cancel()
	if len(replay) != 4 || replay[0].Seq != 7 || replay[3].Seq != 10 {
		t.Fatalf("ring retained %d events starting at %d, want 4 starting at 7",
			len(replay), replay[0].Seq)
	}
}

func TestBusDropsLaggingSubscriber(t *testing.T) {
	b := NewBus(64)
	_, sub := b.Subscribe(0, 2)
	for i := 0; i < 5; i++ {
		b.Publish(busEvent(int64(i), "e"))
	}
	if b.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", b.Dropped())
	}
	// The two buffered events are still readable, then the channel closes.
	got := 0
	for range sub.C {
		got++
	}
	if got != 2 {
		t.Errorf("read %d buffered events before close, want 2", got)
	}
	// Resume from the last seen sequence number.
	replay, sub2 := b.Subscribe(3, 16)
	defer sub2.Cancel()
	if len(replay) != 3 {
		t.Errorf("resume replay = %d events, want 3", len(replay))
	}
}

// TestBusConcurrentPublishSubscribe checks order under racing publishers:
// every subscriber sees a strictly increasing sequence with no duplicates.
func TestBusConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus(1 << 12)
	const publishers, each = 4, 200
	_, sub := b.Subscribe(0, publishers*each+1)
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.Publish(busEvent(int64(p), fmt.Sprintf("e%d", i)))
			}
		}(p)
	}
	wg.Wait()
	b.Close()
	var last uint64
	n := 0
	for ev := range sub.C {
		if ev.Seq <= last {
			t.Fatalf("sequence went backwards: %d after %d", ev.Seq, last)
		}
		last = ev.Seq
		n++
	}
	if n != publishers*each {
		t.Errorf("subscriber saw %d events, want %d", n, publishers*each)
	}
}

func TestBusCloseIdempotent(t *testing.T) {
	b := NewBus(4)
	_, sub := b.Subscribe(0, 1)
	b.Close()
	b.Close()
	if _, open := <-sub.C; open {
		t.Error("subscription channel should be closed")
	}
	if seq := b.Publish(busEvent(1, "e")); seq != 0 {
		t.Errorf("publish after close returned seq %d, want 0", seq)
	}
	// Subscribing after close yields a closed channel, not a hang.
	_, sub2 := b.Subscribe(0, 1)
	if _, open := <-sub2.C; open {
		t.Error("post-close subscription should be closed")
	}
}

// TestBusLagResumeNoGapNoDup drives a slow consumer through the full SSE
// recovery cycle: it lags, gets dropped, and resubscribes from the sequence
// number after the last event it saw — while publishing continues — and the
// union of what it saw before and after the drop is every sequence number
// exactly once.
func TestBusLagResumeNoGapNoDup(t *testing.T) {
	const total = 400
	b := NewBus(1 << 10)
	_, sub := b.Subscribe(0, 4)
	for i := 1; i <= total/2; i++ {
		b.Publish(busEvent(int64(i), "e"))
	}
	if b.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", b.Dropped())
	}
	seen := make(map[uint64]int)
	var last uint64
	for ev := range sub.C { // buffered events, then the drop closes C
		seen[ev.Seq]++
		last = ev.Seq
	}
	if last == 0 || last >= total/2 {
		t.Fatalf("consumer saw up to seq %d before the drop", last)
	}

	replay, sub2 := b.Subscribe(last+1, total+16)
	defer sub2.Cancel()
	for _, ev := range replay {
		seen[ev.Seq]++
	}
	for i := total/2 + 1; i <= total; i++ {
		b.Publish(busEvent(int64(i), "e")) // delivered live to sub2
	}
	b.Close()
	for ev := range sub2.C {
		seen[ev.Seq]++
	}

	for seq := uint64(1); seq <= total; seq++ {
		switch seen[seq] {
		case 0:
			t.Fatalf("gap: seq %d never delivered", seq)
		case 1:
		default:
			t.Fatalf("duplicate: seq %d delivered %d times", seq, seen[seq])
		}
	}
	if len(seen) != total {
		t.Fatalf("saw %d distinct seqs, want %d", len(seen), total)
	}
}

// TestBusRecordSize pins the ring's record at 56 B, against the 104 B Event.
func TestBusRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(busRecord{}); got > 56 {
		t.Errorf("busRecord is %d B, want <= 56", got)
	}
}

// wideCount is how many retained records are wide; the side map must hold
// exactly their events.
func wideCount(b *Bus) int {
	n := 0
	for i := 0; i < b.count; i++ {
		if b.ring[(b.start+i)%len(b.ring)].wide {
			n++
		}
	}
	return n
}

// TestBusRecordRoundTrip publishes events at the edges of what a record holds,
// and past them, and requires Snapshot to give each back unchanged with its
// Seq.
func TestBusRecordRoundTrip(t *testing.T) {
	rows := []struct {
		name string
		ev   Event
		wide bool
	}{
		{"zero", Event{}, false},
		{"int32 max", Event{TimeMs: math.MaxFloat64, Type: "task_start", Job: math.MaxInt64, JobName: "max",
			Phase: math.MaxInt32, Task: math.MaxInt32, Slot: math.MaxInt32, Shard: math.MaxInt32, Count: math.MaxInt32}, false},
		{"int32 min", Event{TimeMs: -math.MaxFloat64, Type: "task_end", Job: math.MinInt64, JobName: "min",
			Phase: math.MinInt32, Task: math.MinInt32, Slot: math.MinInt32, Shard: math.MinInt32, Count: math.MinInt32}, false},
		{"no slot", Event{TimeMs: 1.5, Type: "reserve", Job: 3, Phase: 1, Task: 2, Slot: -1}, false},
		{"copy", Event{Type: "copy_start", Job: 4, Copy: true}, false},
		{"local", Event{Type: "task_start", Job: 4, Local: true}, false},
		{"copy local", Event{Type: "task_start", Job: 4, Copy: true, Local: true, Shard: 3, Count: 7}, false},
		{"wide phase", Event{Type: "task_start", Job: 5, Phase: math.MaxInt32 + 1, Copy: true}, true},
		{"wide task", Event{Type: "task_start", Job: 5, Task: math.MinInt32 - 1, Local: true}, true},
		{"wide slot", Event{Type: "task_start", Job: 5, Slot: math.MaxInt}, true},
		{"wide shard", Event{Type: "task_start", Job: 5, Shard: math.MinInt}, true},
		{"wide count", Event{Type: "task_start", Job: 5, Count: math.MaxInt32 + 1}, true},
	}
	all := NewBus(len(rows))
	var want []Event
	for _, row := range rows {
		b := NewBus(4)
		b.Publish(busEvent(0, "earlier"))
		seq := b.Publish(row.ev)
		row.ev.Seq = seq
		if got := b.Snapshot(seq); len(got) != 1 || !reflect.DeepEqual(got[0], row.ev) {
			t.Errorf("%s: Snapshot = %+v, want [%+v]", row.name, got, row.ev)
		}
		if got := wideCount(b); got != len(b.wide) || (got == 1) != row.wide {
			t.Errorf("%s: %d wide records, %d side-map entries; want wide=%v", row.name, got, len(b.wide), row.wide)
		}
		row.ev.Seq = all.Publish(row.ev)
		want = append(want, row.ev)
	}
	if got := all.Snapshot(0); !reflect.DeepEqual(got, want) {
		t.Errorf("all rows in one bus:\n got %+v\nwant %+v", got, want)
	}
}

// TestBusTypeTableOverflow publishes 300 distinct types: the first 256 fit the
// type table, the rest are kept wide, every one replays as published, and a
// wide event leaves the side map with its ring slot.
func TestBusTypeTableOverflow(t *testing.T) {
	const types, capacity = 300, 320
	b := NewBus(capacity)
	var want []Event
	for i := 0; i < types; i++ {
		ev := Event{Type: fmt.Sprintf("type-%d", i), Job: int64(i)}
		ev.Seq = b.Publish(ev)
		want = append(want, ev)
	}
	if got := b.Snapshot(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay of %d distinct types differs from what was published", types)
	}
	if len(b.types) != maxBusTypes || len(b.wide) != types-maxBusTypes {
		t.Fatalf("type table %d, side map %d; want %d and %d", len(b.types), len(b.wide), maxBusTypes, types-maxBusTypes)
	}
	// Known types keep fitting; each publish past capacity evicts one event.
	for i := 0; i < capacity; i++ {
		ev := Event{Type: "type-7", Job: int64(types + i)}
		ev.Seq = b.Publish(ev)
		want = append(want, ev)
		if wideCount(b) != len(b.wide) {
			t.Fatalf("after %d more: %d wide records but %d side-map entries", i+1, wideCount(b), len(b.wide))
		}
	}
	if len(b.wide) != 0 {
		t.Errorf("side map holds %d events after every wide one was evicted", len(b.wide))
	}
	if got := b.Snapshot(0); !reflect.DeepEqual(got, want[len(want)-capacity:]) {
		t.Errorf("replay after eviction differs from the last %d published", capacity)
	}
}

// TestBusMatchesSliceReference drives seeded random Publish, Subscribe(since)
// and Snapshot(since) against a plain []Event ring, with since before, at and
// past the eviction point, and events that are wide by type or by value.
func TestBusMatchesSliceReference(t *testing.T) {
	for _, capacity := range []int{1, 3, 64} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			b := NewBus(capacity)
			var all []Event // every event published, Seq = index+1
			retained := func(since uint64) []Event {
				var out []Event
				for _, ev := range all[max(0, len(all)-capacity):] {
					if ev.Seq >= since {
						out = append(out, ev)
					}
				}
				return out
			}
			for op := 0; op < 4000; op++ {
				switch rng.Intn(4) {
				case 0, 1:
					ev := Event{
						TimeMs: float64(op) / 3, Type: fmt.Sprintf("t%d", rng.Intn(300)), Job: rng.Int63n(1 << 40),
						JobName: fmt.Sprintf("j%d", rng.Intn(9)), Phase: rng.Intn(5), Task: rng.Intn(1000),
						Slot: rng.Intn(64) - 1, Shard: rng.Intn(4), Count: rng.Intn(3),
						Copy: rng.Intn(2) == 0, Local: rng.Intn(2) == 0,
					}
					if rng.Intn(50) == 0 {
						ev.Task = math.MaxInt32 + 1 + rng.Intn(10)
					}
					ev.Seq = b.Publish(ev)
					if ev.Seq != uint64(len(all)+1) {
						t.Fatalf("op %d: Publish returned seq %d, want %d", op, ev.Seq, len(all)+1)
					}
					all = append(all, ev)
				default:
					n := uint64(len(all))
					first := uint64(max(0, len(all)-capacity)) + 1
					candidates := []uint64{0, 1, first - 1, first, first + 1, n, n + 1, n + 7, math.MaxUint64}
					since := candidates[rng.Intn(len(candidates))]
					if rng.Intn(3) == 0 {
						since = uint64(rng.Int63n(int64(n) + 2))
					}
					var got []Event
					if rng.Intn(2) == 0 {
						got = b.Snapshot(since)
					} else {
						var sub *Subscription
						got, sub = b.Subscribe(since, 1)
						sub.Cancel()
					}
					if want := retained(since); !reflect.DeepEqual(got, want) {
						t.Fatalf("op %d, since %d of %d published: got %d events, want %d", op, since, n, len(got), len(want))
					}
				}
				if wideCount(b) != len(b.wide) {
					t.Fatalf("op %d: %d wide records but %d side-map entries", op, wideCount(b), len(b.wide))
				}
			}
		})
	}
}

// TestBusRingBytes is the allocation guard for the replay ring: ssrd's
// default 65,536-event ring costs its records and a few small headers.
func TestBusRingBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	const capacity = 1 << 16
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b := NewBus(capacity)
	runtime.ReadMemStats(&m1)
	got, max := m1.TotalAlloc-m0.TotalAlloc, uint64(capacity*56+4096)
	if got > max {
		t.Errorf("NewBus(%d) allocated %d B, want <= %d", capacity, got, max)
	}
	t.Logf("NewBus(%d) allocated %d B", capacity, got)
	runtime.KeepAlive(b)
}

// TestLastEventIDAtMaxReplaysNothing resumes the SSE stream after the
// largest sequence number there is. There is nothing after it, so the replay
// is empty and the first event on the wire is the next live one; "after
// max" must not wrap around to "since 0" and replay the whole ring.
func TestLastEventIDAtMaxReplaysNothing(t *testing.T) {
	svc := newTestService(t, Config{Nodes: 1, SlotsPerNode: 1})
	for i := 1; i <= 3; i++ {
		svc.bus.Publish(busEvent(int64(i), "retained"))
	}
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.FormatUint(math.MaxUint64, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// The handler subscribed before it sent the headers, so this event is
	// delivered live.
	live := svc.bus.Publish(busEvent(4, "live"))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Seq != live || ev.Type != "live" {
			t.Fatalf("first event on the stream is seq %d %q, want the live seq %d", ev.Seq, ev.Type, live)
		}
		return
	}
	t.Fatalf("stream ended before the live event: %v", sc.Err())
}
