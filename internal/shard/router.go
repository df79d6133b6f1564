package shard

import (
	"fmt"
	"hash/fnv"

	"ssr/internal/dag"
)

// JobInfo is the router's view of a job being placed onto a shard.
type JobInfo struct {
	// ID and Name identify the job; Name (when set) is the hash routing
	// key so renumbered replays land identically.
	ID   dag.JobID
	Name string
	// Priority is the job's scheduling priority.
	Priority dag.Priority
	// MaxParallelism is the widest phase of the job's DAG — the peak slot
	// demand a shard must eventually serve.
	MaxParallelism int
	// TotalTasks is the job's task count across all phases.
	TotalTasks int
	// MaxDemand is the largest per-task slot capacity the job needs.
	MaxDemand int
	// Tenant is the job's owning tenant, carried for visibility and
	// accounting; the stock routers do not branch on it.
	Tenant string
}

// Load is the router's view of one shard's occupancy at placement time.
type Load struct {
	// Slots is the shard's total slot count.
	Slots int
	// Busy and Reserved are the shard's currently occupied and
	// reserved-idle slots.
	Busy     int
	Reserved int
	// Pending is the number of jobs routed to the shard that have not yet
	// finished.
	Pending int
	// Assigned is the cumulative number of jobs ever routed to the shard.
	Assigned int
}

// pressure is the shard's slot pressure: occupied plus reserved plus one
// slot of expected demand per unfinished routed job, relative to capacity.
func (l Load) pressure() float64 {
	if l.Slots == 0 {
		return 1
	}
	return float64(l.Busy+l.Reserved+l.Pending) / float64(l.Slots)
}

// free is the shard's currently unoccupied, unreserved capacity.
func (l Load) free() int { return l.Slots - l.Busy - l.Reserved }

// Router places incoming jobs onto shards. Pick returns the index of the
// chosen shard; loads has one entry per shard. Implementations must be
// deterministic functions of their inputs, and may only read loads during
// the call: the service passes one scratch slice it overwrites for the next
// admission.
type Router interface {
	// Name returns the router's flag-facing name.
	Name() string
	// Pick chooses a home shard for the job.
	Pick(info JobInfo, loads []Load) int
}

// HashRouter places jobs by a stable FNV-1a hash of the job's name (or ID
// when unnamed), ignoring load. Placement depends only on the job itself,
// which keeps replays shard-stable and makes the K=1 vs K=4 determinism
// comparison meaningful.
type HashRouter struct{}

// Name implements Router.
func (HashRouter) Name() string { return "hash" }

// Pick implements Router.
func (HashRouter) Pick(info JobInfo, loads []Load) int {
	h := fnv.New32a()
	if info.Name != "" {
		h.Write([]byte(info.Name))
	} else {
		var buf [8]byte
		v := uint64(info.ID)
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return int(h.Sum32() % uint32(len(loads)))
}

// LeastLoadedRouter places each job on the shard with the lowest slot
// pressure (busy + reserved + pending jobs, relative to capacity), breaking
// ties toward fewer cumulative assignments and then the lowest index.
type LeastLoadedRouter struct{}

// Name implements Router.
func (LeastLoadedRouter) Name() string { return "least-loaded" }

// Pick implements Router.
func (LeastLoadedRouter) Pick(info JobInfo, loads []Load) int {
	best := 0
	for i := 1; i < len(loads); i++ {
		pi, pb := loads[i].pressure(), loads[best].pressure()
		if pi < pb || (pi == pb && loads[i].Assigned < loads[best].Assigned) {
			best = i
		}
	}
	return best
}

// BestFitRouter is packing-aware: it places the job on the shard with the
// least free capacity that still fits the job's widest phase, so wide jobs
// keep finding shards they fit in whole (Shafiee & Ghaderi's placement
// constraint motivation). When no shard fits, it falls back to least-loaded.
type BestFitRouter struct{}

// Name implements Router.
func (BestFitRouter) Name() string { return "best-fit" }

// Pick implements Router.
func (BestFitRouter) Pick(info JobInfo, loads []Load) int {
	best := -1
	for i, l := range loads {
		if l.free() < info.MaxParallelism {
			continue
		}
		if best < 0 || l.free() < loads[best].free() {
			best = i
		}
	}
	if best < 0 {
		return LeastLoadedRouter{}.Pick(info, loads)
	}
	return best
}

// ParseRouter maps a flag value to a router. Valid names: "hash",
// "least-loaded", "best-fit".
func ParseRouter(name string) (Router, error) {
	switch name {
	case "hash":
		return HashRouter{}, nil
	case "least-loaded":
		return LeastLoadedRouter{}, nil
	case "best-fit":
		return BestFitRouter{}, nil
	default:
		return nil, fmt.Errorf("shard: unknown router %q (want hash, least-loaded or best-fit)", name)
	}
}
