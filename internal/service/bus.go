package service

import (
	"sync"
	"sync/atomic"
)

// Bus is an ordered, replayable event fan-out. Events get contiguous
// sequence numbers in publish order; a bounded ring retains recent history
// so subscribers (SSE reconnects) can resume from a sequence number.
//
// Publish never blocks on slow consumers: a subscriber whose buffer fills
// is dropped (its channel closed), and it can resubscribe from its last
// seen sequence number — the standard SSE Last-Event-ID contract.
//
// The ring keeps each event as a 56 B busRecord and renders the Event on
// replay. A record's Seq is implicit in its ring position, and its Type is
// an index into the bus's table of type strings.
type Bus struct {
	mu    sync.Mutex
	ring  []busRecord
	start int // ring index of the oldest retained event
	count int // retained events
	// types holds each distinct Event.Type in order of first sight; a
	// record's typ indexes it.
	types []string
	// wide holds, by Seq, each retained event whose record is wide.
	wide   map[uint64]Event
	subs   map[*Subscription]struct{}
	closed bool
	// published and dropped are atomics so metrics scrapes read them
	// without contending on mu with the publish hot path.
	published atomic.Uint64 // events published; next seq = published+1
	dropped   atomic.Int64  // subscribers dropped for lagging
}

// maxBusTypes is how many distinct type strings a uint8 typ can name. The
// driver publishes about fifteen; an event with a type past the table is
// kept wide.
const maxBusTypes = 256

// busRecord is one retained event. An event with a phase, task, slot, shard
// or count outside int32, or a type the table has no room for, is kept whole
// in Bus.wide and its record is only wide.
type busRecord struct {
	timeMs                          float64
	job                             int64
	jobName                         string
	phase, task, slot, shard, count int32
	typ                             uint8
	copy, local, wide               bool
}

// event renders a record that is not wide, given its sequence number.
func (r *busRecord) event(seq uint64, types []string) Event {
	return Event{
		Seq: seq, TimeMs: r.timeMs, Type: types[r.typ], Job: r.job, JobName: r.jobName,
		Phase: int(r.phase), Task: int(r.task), Slot: int(r.slot), Shard: int(r.shard), Count: int(r.count),
		Copy: r.copy, Local: r.local,
	}
}

// fits32 reports whether v survives a round trip through int32.
func fits32(v int) bool { return v == int(int32(v)) }

// Subscription is one live consumer of the bus.
type Subscription struct {
	// C delivers events in order. It is closed when the subscriber lags
	// beyond its buffer, Cancel is called, or the bus closes.
	C   chan Event
	bus *Bus
}

// Cancel detaches the subscription and closes its channel. Safe to call
// once; pending buffered events are still readable from C.
func (s *Subscription) Cancel() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	s.bus.detach(s)
}

// NewBus creates a bus retaining up to capacity events for replay.
func NewBus(capacity int) *Bus {
	if capacity < 1 {
		capacity = 1
	}
	return &Bus{
		ring: make([]busRecord, capacity),
		subs: make(map[*Subscription]struct{}),
	}
}

// Publish assigns the event its sequence number, retains it, and forwards
// it to every live subscriber. It returns the assigned sequence number.
func (b *Bus) Publish(ev Event) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0
	}
	ev.Seq = b.published.Add(1)
	var slot *busRecord
	if b.count == len(b.ring) {
		slot = &b.ring[b.start]
		if slot.wide {
			delete(b.wide, ev.Seq-uint64(len(b.ring)))
		}
		b.start = (b.start + 1) % len(b.ring)
	} else {
		slot = &b.ring[(b.start+b.count)%len(b.ring)]
		b.count++
	}
	*slot = b.record(&ev)
	for sub := range b.subs { //maporder:ok fan-out only; every subscriber sees the same ordered stream
		select {
		case sub.C <- ev:
		default:
			// Lagging consumer: drop it rather than stall the
			// scheduler. It can resume from Last-Event-ID.
			b.detach(sub)
			b.dropped.Add(1)
		}
	}
	return ev.Seq
}

// record packs ev for the ring, filing it in b.wide when it does not fit;
// callers hold b.mu.
func (b *Bus) record(ev *Event) busRecord {
	if fits32(ev.Phase) && fits32(ev.Task) && fits32(ev.Slot) && fits32(ev.Shard) && fits32(ev.Count) {
		if typ, ok := b.typeIndex(ev.Type); ok {
			return busRecord{
				timeMs: ev.TimeMs, job: ev.Job, jobName: ev.JobName,
				phase: int32(ev.Phase), task: int32(ev.Task), slot: int32(ev.Slot),
				shard: int32(ev.Shard), count: int32(ev.Count),
				typ: typ, copy: ev.Copy, local: ev.Local,
			}
		}
	}
	if b.wide == nil {
		b.wide = make(map[uint64]Event)
	}
	b.wide[ev.Seq] = *ev
	return busRecord{wide: true}
}

// typeIndex returns typ's index in b.types, adding it on first sight; ok is
// false when the table is full. Callers hold b.mu.
func (b *Bus) typeIndex(typ string) (i uint8, ok bool) {
	for i, t := range b.types {
		if t == typ {
			return uint8(i), true
		}
	}
	if len(b.types) == maxBusTypes {
		return 0, false
	}
	b.types = append(b.types, typ)
	return uint8(len(b.types) - 1), true
}

// detach removes a subscription and closes its channel; callers hold b.mu.
func (b *Bus) detach(s *Subscription) {
	if _, ok := b.subs[s]; !ok {
		return
	}
	delete(b.subs, s)
	close(s.C)
}

// Published returns the number of events published so far. Lock-free:
// safe to call from metrics scrapes without stalling publishers.
func (b *Bus) Published() uint64 {
	return b.published.Load()
}

// Dropped returns the number of subscribers dropped for lagging. Lock-free.
func (b *Bus) Dropped() int {
	return int(b.dropped.Load())
}

// Subscribe registers a consumer resuming at sequence number since (0 or 1
// replay everything retained). Retained events with Seq >= since are
// returned for the caller to deliver first; the subscription then carries
// every event published after the snapshot, with no gap and no duplicate.
// If history older than since has already been evicted the replay simply
// starts at the oldest retained event.
func (b *Bus) Subscribe(since uint64, buffer int) ([]Event, *Subscription) {
	if buffer < 1 {
		buffer = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	replay := b.snapshotLocked(since)
	sub := &Subscription{C: make(chan Event, buffer), bus: b}
	if b.closed {
		close(sub.C)
		return replay, sub
	}
	b.subs[sub] = struct{}{}
	return replay, sub
}

// Snapshot returns the retained events with Seq >= since, without
// subscribing.
func (b *Bus) Snapshot(since uint64) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.snapshotLocked(since)
}

// snapshotLocked renders the retained events with Seq >= since, or nil if
// there are none; callers hold b.mu. The oldest retained event's Seq is
// published-count+1, so the replay starts at ring offset since-first
// without scanning what precedes it.
func (b *Bus) snapshotLocked(since uint64) []Event {
	first := b.published.Load() - uint64(b.count) + 1
	skip := uint64(0)
	if since > first {
		skip = since - first
	}
	if skip >= uint64(b.count) {
		return nil
	}
	out := make([]Event, b.count-int(skip))
	for i := range out {
		k := int(skip) + i
		seq := first + uint64(k)
		if rec := &b.ring[(b.start+k)%len(b.ring)]; rec.wide {
			out[i] = b.wide[seq]
		} else {
			out[i] = rec.event(seq, b.types)
		}
	}
	return out
}

// Close detaches every subscriber and rejects further publishes.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for sub := range b.subs { //maporder:ok every subscriber is detached; order-free
		b.detach(sub)
	}
}
