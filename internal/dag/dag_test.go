package dag

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func uniformSpec(tasks int, dur time.Duration, deps ...int) PhaseSpec {
	ds := make([]time.Duration, tasks)
	for i := range ds {
		ds[i] = dur
	}
	return PhaseSpec{Durations: ds, Deps: deps}
}

func mustChain(t *testing.T, phases ...PhaseSpec) *Job {
	t.Helper()
	j, err := Chain(1, "test", 10, phases)
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	return j
}

func TestNewJobValidation(t *testing.T) {
	tests := []struct {
		name  string
		specs []PhaseSpec
	}{
		{name: "no phases", specs: nil},
		{name: "empty phase", specs: []PhaseSpec{{}}},
		{name: "zero duration", specs: []PhaseSpec{{Durations: []time.Duration{0}}}},
		{name: "negative duration", specs: []PhaseSpec{{Durations: []time.Duration{-time.Second}}}},
		{
			name: "copy length mismatch",
			specs: []PhaseSpec{{
				Durations:     []time.Duration{time.Second, time.Second},
				CopyDurations: []time.Duration{time.Second},
			}},
		},
		{
			name: "zero copy duration",
			specs: []PhaseSpec{{
				Durations:     []time.Duration{time.Second},
				CopyDurations: []time.Duration{0},
			}},
		},
		{
			name: "out of range dep",
			specs: []PhaseSpec{
				{Durations: []time.Duration{time.Second}, Deps: []int{5}},
			},
		},
		{
			name: "negative dep",
			specs: []PhaseSpec{
				{Durations: []time.Duration{time.Second}, Deps: []int{-1}},
			},
		},
		{
			name: "self dep",
			specs: []PhaseSpec{
				{Durations: []time.Duration{time.Second}, Deps: []int{0}},
			},
		},
		{
			name: "cycle",
			specs: []PhaseSpec{
				{Durations: []time.Duration{time.Second}, Deps: []int{1}},
				{Durations: []time.Duration{time.Second}, Deps: []int{0}},
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewJob(1, "bad", 1, tt.specs); err == nil {
				t.Error("want validation error, got nil")
			}
		})
	}
}

func TestNewJobDefaultsCopyDurations(t *testing.T) {
	j, err := NewJob(1, "j", 1, []PhaseSpec{
		{Durations: []time.Duration{sec(1), sec(2)}},
	})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	for _, task := range j.Phase(0).Tasks {
		if task.CopyDuration != task.Duration {
			t.Errorf("task %d copy %v != duration %v", task.Index, task.CopyDuration, task.Duration)
		}
	}
}

func TestNewJobDedupesDeps(t *testing.T) {
	j, err := NewJob(1, "j", 1, []PhaseSpec{
		uniformSpec(1, sec(1)),
		{Durations: []time.Duration{sec(1)}, Deps: []int{0, 0, 0}},
	})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	if got := len(j.Phase(1).Deps); got != 1 {
		t.Errorf("deps = %d, want 1 after dedupe", got)
	}
	if got := len(j.Children(0)); got != 1 {
		t.Errorf("children = %d, want 1 after dedupe", got)
	}
}

func TestChainTopology(t *testing.T) {
	j := mustChain(t,
		uniformSpec(4, sec(1)),
		uniformSpec(4, sec(2)),
		uniformSpec(2, sec(3)),
	)
	if j.NumPhases() != 3 {
		t.Fatalf("NumPhases = %d, want 3", j.NumPhases())
	}
	if got := j.Roots(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Roots = %v, want [0]", got)
	}
	if !j.IsFinal(2) || j.IsFinal(0) || j.IsFinal(1) {
		t.Error("final-phase detection wrong")
	}
	if got := j.Children(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("Children(0) = %v, want [1]", got)
	}
	order := j.TopoOrder()
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("TopoOrder = %v, want %v", order, want)
		}
	}
}

func TestDownstreamParallelism(t *testing.T) {
	j := mustChain(t,
		uniformSpec(4, sec(1)),
		uniformSpec(8, sec(1)),
		uniformSpec(2, sec(1)),
	)
	if got := j.DownstreamParallelism(0); got != 8 {
		t.Errorf("DownstreamParallelism(0) = %d, want 8", got)
	}
	if got := j.DownstreamParallelism(1); got != 2 {
		t.Errorf("DownstreamParallelism(1) = %d, want 2", got)
	}
	if got := j.DownstreamParallelism(2); got != 0 {
		t.Errorf("DownstreamParallelism(final) = %d, want 0", got)
	}
}

func TestDiamondDAG(t *testing.T) {
	//      0
	//    /   \
	//   1     2
	//    \   /
	//      3
	j, err := NewJob(1, "diamond", 1, []PhaseSpec{
		uniformSpec(2, sec(1)),
		uniformSpec(3, sec(1), 0),
		uniformSpec(4, sec(1), 0),
		uniformSpec(5, sec(1), 1, 2),
	})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	if got := j.DownstreamParallelism(0); got != 7 {
		t.Errorf("DownstreamParallelism(0) = %d, want 3+4", got)
	}
	order := j.TopoOrder()
	pos := make(map[int]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	if pos[0] > pos[1] || pos[0] > pos[2] || pos[1] > pos[3] || pos[2] > pos[3] {
		t.Errorf("TopoOrder %v violates dependencies", order)
	}
	if got := j.Roots(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Roots = %v, want [0]", got)
	}
}

func TestTotalAndMaxParallelism(t *testing.T) {
	j := mustChain(t, uniformSpec(4, sec(1)), uniformSpec(8, sec(1)))
	if got := j.TotalTasks(); got != 12 {
		t.Errorf("TotalTasks = %d, want 12", got)
	}
	if got := j.MaxParallelism(); got != 8 {
		t.Errorf("MaxParallelism = %d, want 8", got)
	}
}

func TestSerialWork(t *testing.T) {
	j := mustChain(t, uniformSpec(2, sec(3)), uniformSpec(3, sec(2)))
	if got, want := j.SerialWork(), sec(12); got != want {
		t.Errorf("SerialWork = %v, want %v", got, want)
	}
}

func TestCriticalPathChain(t *testing.T) {
	j := mustChain(t,
		PhaseSpec{Durations: []time.Duration{sec(1), sec(5)}},
		PhaseSpec{Durations: []time.Duration{sec(2), sec(3)}},
	)
	if got, want := j.CriticalPath(), sec(8); got != want {
		t.Errorf("CriticalPath = %v, want %v", got, want)
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	j, err := NewJob(1, "diamond", 1, []PhaseSpec{
		{Durations: []time.Duration{sec(1)}},
		{Durations: []time.Duration{sec(10)}, Deps: []int{0}},
		{Durations: []time.Duration{sec(2)}, Deps: []int{0}},
		{Durations: []time.Duration{sec(1)}, Deps: []int{1, 2}},
	})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	if got, want := j.CriticalPath(), sec(12); got != want {
		t.Errorf("CriticalPath = %v, want %v (through the slow branch)", got, want)
	}
}

func TestOptions(t *testing.T) {
	j, err := NewJob(7, "opt", 3, []PhaseSpec{uniformSpec(1, sec(1))},
		WithClass(Background), WithSubmit(sec(42)), WithKnownParallelism())
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	if j.Class != Background {
		t.Errorf("Class = %v, want Background", j.Class)
	}
	if j.Submit != sec(42) {
		t.Errorf("Submit = %v, want 42s", j.Submit)
	}
	if !j.ParallelismKnown {
		t.Error("ParallelismKnown not set")
	}
	if j.Class.String() != "background" || Foreground.String() != "foreground" {
		t.Error("Class.String wrong")
	}
	if Class(99).String() == "" {
		t.Error("unknown Class should still stringify")
	}
	if j.String() == "" {
		t.Error("Job.String should be non-empty")
	}
}

func TestDefaultClassForeground(t *testing.T) {
	j := mustChain(t, uniformSpec(1, sec(1)))
	if j.Class != Foreground {
		t.Errorf("default Class = %v, want Foreground", j.Class)
	}
}

// Property: for random DAGs (deps always point to lower indices, so they are
// acyclic by construction), the topological order respects every edge and
// the critical path is at least the slowest phase and at most the serial
// work.
func TestRandomDAGProperties(t *testing.T) {
	prop := func(seed int64, np uint8) bool {
		n := int(np)%8 + 1
		rng := rand.New(rand.NewSource(seed))
		specs := make([]PhaseSpec, n)
		for i := range specs {
			tasks := rng.Intn(5) + 1
			ds := make([]time.Duration, tasks)
			for ti := range ds {
				ds[ti] = time.Duration(rng.Intn(1000)+1) * time.Millisecond
			}
			var deps []int
			for d := 0; d < i; d++ {
				if rng.Intn(3) == 0 {
					deps = append(deps, d)
				}
			}
			specs[i] = PhaseSpec{Durations: ds, Deps: deps}
		}
		j, err := NewJob(1, "rand", 1, specs)
		if err != nil {
			return false
		}
		pos := make(map[int]int, n)
		for i, id := range j.TopoOrder() {
			pos[id] = i
		}
		if len(pos) != n {
			return false
		}
		for _, p := range j.Phases() {
			for _, dep := range p.Deps {
				if pos[dep] >= pos[p.ID] {
					return false
				}
			}
		}
		cp := j.CriticalPath()
		if cp > j.SerialWork() {
			return false
		}
		for _, p := range j.Phases() {
			var slowest time.Duration
			for _, task := range p.Tasks {
				if task.Duration > slowest {
					slowest = task.Duration
				}
			}
			if cp < slowest {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// refJob is the graph NewJob built before jobs were laid out flat: one
// object per phase, a children list per phase, a three-slice topological
// sort. It is kept as the reference the Builder is compared against.
type refJob struct {
	phases   []*Phase
	children [][]int
	topo     []int
}

func refNewJob(name string, specs []PhaseSpec) (*refJob, error) {
	if len(specs) == 0 {
		return nil, errNoPhases
	}
	j := &refJob{
		phases:   make([]*Phase, 0, len(specs)),
		children: make([][]int, len(specs)),
	}
	for pi, spec := range specs {
		if len(spec.Durations) == 0 {
			return nil, fmt.Errorf("dag: job %q phase %d has no tasks", name, pi)
		}
		if spec.CopyDurations != nil && len(spec.CopyDurations) != len(spec.Durations) {
			return nil, fmt.Errorf("dag: job %q phase %d has %d copy durations for %d tasks",
				name, pi, len(spec.CopyDurations), len(spec.Durations))
		}
		demand := spec.Demand
		if demand == 0 {
			demand = 1
		}
		if demand < 0 {
			return nil, fmt.Errorf("dag: job %q phase %d has negative demand %d", name, pi, spec.Demand)
		}
		ph := &Phase{ID: pi, Tasks: make([]Task, len(spec.Durations)), Demand: demand}
		for ti, d := range spec.Durations {
			if d <= 0 {
				return nil, fmt.Errorf("dag: job %q phase %d task %d has non-positive duration %v",
					name, pi, ti, d)
			}
			cd := d
			if spec.CopyDurations != nil {
				cd = spec.CopyDurations[ti]
				if cd <= 0 {
					return nil, fmt.Errorf("dag: job %q phase %d task %d has non-positive copy duration %v",
						name, pi, ti, cd)
				}
			}
			ph.Tasks[ti] = Task{Index: ti, Duration: d, CopyDuration: cd}
		}
		seen := make(map[int]bool, len(spec.Deps))
		for _, dep := range spec.Deps {
			if dep < 0 || dep >= len(specs) {
				return nil, fmt.Errorf("dag: job %q phase %d depends on out-of-range phase %d", name, pi, dep)
			}
			if dep == pi {
				return nil, fmt.Errorf("dag: job %q phase %d depends on itself", name, pi)
			}
			if seen[dep] {
				continue
			}
			seen[dep] = true
			ph.Deps = append(ph.Deps, dep)
			j.children[dep] = append(j.children[dep], pi)
		}
		j.phases = append(j.phases, ph)
	}
	topo, err := j.topoSort()
	if err != nil {
		return nil, fmt.Errorf("dag: job %q: %w", name, err)
	}
	j.topo = topo
	return j, nil
}

func refChain(name string, phases []PhaseSpec) (*refJob, error) {
	specs := make([]PhaseSpec, len(phases))
	for i, p := range phases {
		specs[i] = p
		if i > 0 {
			specs[i].Deps = []int{i - 1}
		}
	}
	return refNewJob(name, specs)
}

func (j *refJob) topoSort() ([]int, error) {
	n := len(j.phases)
	indeg := make([]int, n)
	for _, p := range j.phases {
		indeg[p.ID] = len(p.Deps)
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, c := range j.children[id] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(order) != n {
		return nil, errCycle
	}
	return order, nil
}

func (j *refJob) roots() []int {
	var roots []int
	for _, p := range j.phases {
		if len(p.Deps) == 0 {
			roots = append(roots, p.ID)
		}
	}
	return roots
}

func (j *refJob) downstreamParallelism(id int) int {
	n := 0
	for _, c := range j.children[id] {
		n += len(j.phases[c].Tasks)
	}
	return n
}

func (j *refJob) criticalPath() time.Duration {
	longest := make([]time.Duration, len(j.phases))
	var best time.Duration
	for _, id := range j.topo {
		p := j.phases[id]
		var slowest, upstream time.Duration
		for _, t := range p.Tasks {
			if t.Duration > slowest {
				slowest = t.Duration
			}
		}
		for _, dep := range p.Deps {
			if longest[dep] > upstream {
				upstream = longest[dep]
			}
		}
		longest[id] = upstream + slowest
		if longest[id] > best {
			best = longest[id]
		}
	}
	return best
}

// checkAgainstReference builds specs both ways, as a DAG and as a chain,
// and requires the same job or the identical error string.
func checkAgainstReference(t *testing.T, specs []PhaseSpec) {
	t.Helper()
	for _, chain := range []bool{false, true} {
		var (
			got     *Job
			want    *refJob
			err     error
			wantErr error
		)
		if chain {
			got, err = Chain(7, "cmp", 3, specs)
			want, wantErr = refChain("cmp", specs)
		} else {
			got, err = NewJob(7, "cmp", 3, specs)
			want, wantErr = refNewJob("cmp", specs)
		}
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("chain=%v: error %v, reference says %v", chain, err, wantErr)
		}
		if err != nil {
			if got != nil {
				t.Fatalf("chain=%v: a job came back with error %v", chain, err)
			}
			continue
		}
		n := len(want.phases)
		if got.NumPhases() != n || len(got.Phases()) != n {
			t.Fatalf("chain=%v: %d phases (Phases() has %d), want %d", chain, got.NumPhases(), len(got.Phases()), n)
		}
		var tasks, maxPar, maxDemand int
		var work time.Duration
		maxDemand = 1
		for id, wp := range want.phases {
			gp := got.Phase(id)
			if gp != got.Phases()[id] {
				t.Fatalf("chain=%v: Phase(%d) and Phases()[%d] differ", chain, id, id)
			}
			// Every field, nil-ness of Deps included.
			if !reflect.DeepEqual(*gp, *wp) {
				t.Fatalf("chain=%v: phase %d = %+v, want %+v", chain, id, *gp, *wp)
			}
			// By content: the flat job hands out empty sub-slices of its
			// arena where the reference had nil.
			if !slices.Equal(got.Children(id), want.children[id]) {
				t.Fatalf("chain=%v: Children(%d) = %v, want %v", chain, id, got.Children(id), want.children[id])
			}
			if got.IsFinal(id) != (len(want.children[id]) == 0) {
				t.Fatalf("chain=%v: IsFinal(%d) = %v", chain, id, got.IsFinal(id))
			}
			if g, w := got.DownstreamParallelism(id), want.downstreamParallelism(id); g != w {
				t.Fatalf("chain=%v: DownstreamParallelism(%d) = %d, want %d", chain, id, g, w)
			}
			tasks += len(wp.Tasks)
			if len(wp.Tasks) > maxPar {
				maxPar = len(wp.Tasks)
			}
			if wp.Demand > maxDemand {
				maxDemand = wp.Demand
			}
			for _, task := range wp.Tasks {
				work += task.Duration
			}
		}
		if !slices.Equal(got.Roots(), want.roots()) {
			t.Fatalf("chain=%v: Roots = %v, want %v", chain, got.Roots(), want.roots())
		}
		if !slices.Equal(got.TopoOrder(), want.topo) {
			t.Fatalf("chain=%v: TopoOrder = %v, want %v", chain, got.TopoOrder(), want.topo)
		}
		if got.TotalTasks() != tasks || got.MaxParallelism() != maxPar || got.MaxDemand() != maxDemand ||
			got.SerialWork() != work || got.CriticalPath() != want.criticalPath() {
			t.Fatalf("chain=%v: tasks %d/%d, max parallelism %d/%d, max demand %d/%d, work %v/%v, critical path %v/%v",
				chain, got.TotalTasks(), tasks, got.MaxParallelism(), maxPar, got.MaxDemand(), maxDemand,
				got.SerialWork(), work, got.CriticalPath(), want.criticalPath())
		}
	}
}

// specsFromBytes decodes any byte string into phase specs, valid or not, so
// the same comparison runs over hand-written cases, seeded random strings
// and the fuzzer's mutations. Bytes below 128 only ever produce valid DAGs
// with backward edges; the top values inject each kind of invalid input,
// and a string that runs out reads as zeros (one 10ms task, no deps).
//
//	byte 0                 phase count, mod 41: 0 (no phases) … 40, past the
//	                       Builder's stack scratch
//	per phase: tasks       255 → none, else 1 + b mod 6
//	           demand      255 → -1, else b mod 4 (0 = default)
//	           copies      255 → one copy duration short, b mod 4 ≥ 2 →
//	                       explicit, else defaulted
//	           deps        count, b mod 4
//	           per dep     255 → past the last phase, 254 → -1, 253 → itself,
//	                       ≥ 128 → any phase (forward edges make cycles),
//	                       else an earlier phase (dropped for phase 0)
//	           per task    255 → 0, 254 → -1s, else (1+b)·10ms; with explicit
//	                       copies one more byte: 255 → 0, else (1+b)·7ms
func specsFromBytes(data []byte) []PhaseSpec {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := next() % 41
	specs := make([]PhaseSpec, n)
	for i := range specs {
		spec := &specs[i]
		tasks := next()
		if tasks == 255 {
			tasks = 0
		} else {
			tasks = 1 + tasks%6
		}
		if spec.Demand = next(); spec.Demand == 255 {
			spec.Demand = -1
		} else {
			spec.Demand %= 4
		}
		copies := next()
		switch {
		case copies == 255 && tasks > 0:
			spec.CopyDurations = make([]time.Duration, 0, tasks)
		case copies%4 >= 2:
			spec.CopyDurations = make([]time.Duration, 0, tasks)
		}
		short := copies == 255
		for deps := next() % 4; deps > 0; deps-- {
			switch b := next(); {
			case b == 255:
				spec.Deps = append(spec.Deps, n)
			case b == 254:
				spec.Deps = append(spec.Deps, -1)
			case b == 253:
				spec.Deps = append(spec.Deps, i)
			case b >= 128:
				spec.Deps = append(spec.Deps, b%n)
			case i > 0:
				spec.Deps = append(spec.Deps, b%i)
			}
		}
		for ti := 0; ti < tasks; ti++ {
			switch b := next(); b {
			case 255:
				spec.Durations = append(spec.Durations, 0)
			case 254:
				spec.Durations = append(spec.Durations, -time.Second)
			default:
				spec.Durations = append(spec.Durations, time.Duration(1+b)*10*time.Millisecond)
			}
			if spec.CopyDurations == nil || (short && ti == tasks-1) {
				continue
			}
			if b := next(); b == 255 {
				spec.CopyDurations = append(spec.CopyDurations, 0)
			} else {
				spec.CopyDurations = append(spec.CopyDurations, time.Duration(1+b)*7*time.Millisecond)
			}
		}
	}
	return specs
}

// referenceCases is the table: every invalid input the old constructor
// named, and the shapes the flat layout has to get right. The fuzz target
// seeds its corpus from it.
var referenceCases = []struct {
	name    string
	data    []byte
	wantErr string // substring; "" means the spec must build
}{
	{"no phases", []byte{0}, "at least one phase"},
	{"empty phase", []byte{1, 255}, "phase 0 has no tasks"},
	{"empty phase after a bad duration", []byte{2, 0, 0, 0, 0, 255, 255}, "phase 0 task 0 has non-positive duration 0s"},
	{"self dep", []byte{1, 0, 0, 0, 1, 253}, "phase 0 depends on itself"},
	{"out-of-range dep", []byte{2, 0, 0, 0, 1, 255}, "phase 0 depends on out-of-range phase 2"},
	{"negative dep", []byte{1, 0, 0, 0, 1, 254}, "phase 0 depends on out-of-range phase -1"},
	{"cycle", []byte{2, 0, 0, 0, 1, 129, 0, 0, 0, 0, 1, 128}, "contain a cycle"},
	{"negative demand", []byte{1, 0, 255}, "phase 0 has negative demand -1"},
	{"negative demand before a bad dep", []byte{1, 0, 255, 0, 1, 253}, "negative demand"},
	{"copy-length mismatch", []byte{1, 1, 0, 255}, "phase 0 has 1 copy durations for 2 tasks"},
	{"copy-length mismatch before negative demand", []byte{1, 1, 255, 255}, "copy durations for 2 tasks"},
	{"zero duration", []byte{1, 0, 0, 0, 0, 255}, "task 0 has non-positive duration 0s"},
	{"negative duration", []byte{1, 1, 0, 0, 0, 9, 254}, "task 1 has non-positive duration -1s"},
	{"zero copy duration", []byte{1, 0, 0, 2, 0, 9, 255}, "task 0 has non-positive copy duration 0s"},
	{"bad duration before a bad dep of the same phase", []byte{1, 0, 0, 0, 1, 253, 255}, "non-positive duration"},
	{"one phase", []byte{1}, ""},
	{"chain of three", []byte{3, 1, 0, 0, 0, 1, 2, 2, 0, 0, 1, 0, 3, 3, 3, 0, 0, 0, 1, 1, 5}, ""},
	{"diamond with duplicate deps", []byte{4, 1, 0, 0, 0, 4, 9, 0, 2, 0, 1, 0, 3, 2, 0, 2, 2, 0, 2, 5, 6, 7, 8, 1, 2, 0, 1, 0, 3, 1, 2, 4, 9}, ""},
	{"forest", []byte{5, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 3, 1, 0, 1, 0, 4, 4, 4, 4, 0, 0, 0, 1, 2, 1, 1, 0, 0, 1, 1, 6, 6}, ""},
	{"twenty roots, past the stack scratch", []byte{20}, ""},
	{"forward edge without a cycle", []byte{3, 0, 0, 0, 1, 128, 1, 0, 0, 0, 0, 2, 0, 0, 0, 1, 1, 3}, ""},
}

func TestBuilderMatchesReferenceTable(t *testing.T) {
	for _, tc := range referenceCases {
		t.Run(tc.name, func(t *testing.T) {
			specs := specsFromBytes(tc.data)
			_, err := NewJob(1, "cmp", 1, specs)
			if tc.wantErr == "" && err != nil {
				t.Fatalf("spec %+v does not build: %v", specs, err)
			}
			if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("spec %+v: error %v, want one containing %q", specs, err, tc.wantErr)
			}
			checkAgainstReference(t, specs)
		})
	}
}

// TestBuilderMatchesReferenceRandom runs the comparison over seeded random
// byte strings: a valid family (bytes below 128: diamonds, chains, forests,
// duplicate deps, 1…40 phases, uneven task counts, explicit and defaulted
// copy durations and demands) and a hostile one (all byte values, where
// most specs carry several errors and the first one reported must agree).
func TestBuilderMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	built, wide := 0, 0
	for i := 0; i < 4000; i++ {
		data := make([]byte, rng.Intn(700))
		limit := 128
		if i%2 == 1 {
			limit = 256
		}
		for k := range data {
			data[k] = byte(rng.Intn(limit))
		}
		specs := specsFromBytes(data)
		if _, err := NewJob(1, "cmp", 1, specs); err == nil {
			built++
			if len(specs) > stackPhases {
				wide++
			}
		} else if limit == 128 && len(specs) > 0 {
			t.Fatalf("valid-family string %d does not build: %v", i, err)
		}
		checkAgainstReference(t, specs)
	}
	if built < 1500 || wide < 500 {
		t.Errorf("only %d of 4000 specs built, %d of them past the stack scratch", built, wide)
	}
}

func FuzzBuilderMatchesReference(f *testing.F) {
	for _, tc := range referenceCases {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, specsFromBytes(data))
	})
}

// TestJobDoesNotAliasItsSpec: mutating the input after the build changes
// nothing in the job.
func TestJobDoesNotAliasItsSpec(t *testing.T) {
	mk := func() []PhaseSpec {
		return []PhaseSpec{
			{Durations: []time.Duration{sec(1), sec(2)}, CopyDurations: []time.Duration{sec(3), sec(4)}},
			{Durations: []time.Duration{sec(5)}, Deps: []int{0, 0}, Demand: 2},
			{Durations: []time.Duration{sec(6), sec(7)}, Deps: []int{1, 0}},
		}
	}
	for _, build := range []func(JobID, string, Priority, []PhaseSpec, ...Option) (*Job, error){NewJob, Chain} {
		specs := mk()
		got, err := build(1, "j", 1, specs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			for k := range specs[i].Durations {
				specs[i].Durations[k] = -1
			}
			for k := range specs[i].CopyDurations {
				specs[i].CopyDurations[k] = -1
			}
			for k := range specs[i].Deps {
				specs[i].Deps[k] = 99
			}
			specs[i] = PhaseSpec{}
		}
		want, err := build(1, "j", 1, mk())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("job changed with its spec:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestBuilderDirect drives the Builder the way JobSpec.build does and
// checks the declared sizes are enforced with errors, never a panic or a
// write outside the job's blocks.
func TestBuilderDirect(t *testing.T) {
	fill := func(ts []Task, d time.Duration) {
		for i := range ts {
			ts[i].Duration, ts[i].CopyDuration = d, d
		}
	}
	b := NewBuilder(9, "direct", 4, 3, 5, 3)
	fill(b.AddPhase(2, nil, 0), sec(1))
	fill(b.AddPhase(1, []int{0, 0}, 2), sec(2))
	fill(b.AddPhase(2, []int{1}, 0), sec(3))
	got, err := b.Job()
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewJob(9, "direct", 4, []PhaseSpec{
		uniformSpec(2, sec(1)), {Durations: []time.Duration{sec(2)}, Deps: []int{0}, Demand: 2}, uniformSpec(2, sec(3), 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Builder job %+v differs from NewJob's %+v", got, want)
	}

	overfed := []struct {
		name string
		feed func(b *Builder)
		want string
	}{
		{"a phase too many", func(b *Builder) {
			fill(b.AddPhase(1, nil, 0), sec(1))
			fill(b.AddPhase(1, nil, 0), sec(1))
			fill(b.AddPhase(1, nil, 0), sec(1))
		}, "more than the 2 phases"},
		{"a task too many", func(b *Builder) {
			first := b.AddPhase(2, nil, 0)
			fill(first, sec(1))
			if ts := b.AddPhase(2, nil, 0); ts != nil {
				t.Errorf("overflowing AddPhase handed out %d tasks", len(ts))
			}
			if first[1].Duration != sec(1) || cap(first) != 2 {
				t.Errorf("first phase's tasks disturbed: %+v (cap %d)", first, cap(first))
			}
		}, "more than the 3 tasks"},
		{"a dependency too many", func(b *Builder) {
			fill(b.AddPhase(1, nil, 0), sec(1))
			fill(b.AddPhase(1, []int{0, 0}, 0), sec(1))
		}, "more dependency entries than it declared"},
		{"a phase too few", func(b *Builder) {
			fill(b.AddPhase(1, nil, 0), sec(1))
		}, "1 of the 2 phases"},
		{"unfilled tasks", func(b *Builder) {
			b.AddPhase(1, nil, 0)
			b.AddPhase(1, nil, 0)
		}, "phase 0 task 0 has non-positive duration 0s"},
	}
	for _, tc := range overfed {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(1, "over", 1, 2, 3, 1)
			tc.feed(&b)
			j, err := b.Job()
			if j != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Job() = %v, %v; want an error containing %q", j, err, tc.want)
			}
		})
	}
	for _, sizes := range [][3]int{{-1, 1, 1}, {1, -1, 1}, {1, 1, -1}} {
		b := NewBuilder(1, "neg", 1, sizes[0], sizes[1], sizes[2])
		if ts := b.AddPhase(1, nil, 0); ts != nil {
			t.Errorf("sizes %v: AddPhase handed out tasks", sizes)
		}
		if j, err := b.Job(); j != nil || err == nil {
			t.Errorf("sizes %v: Job() = %v, %v", sizes, j, err)
		}
	}
	empty := NewBuilder(1, "none", 1, 0, 0, 0)
	if _, err := empty.Job(); err != errNoPhases {
		t.Errorf("a builder with no phases: %v", err)
	}
}

// TestZeroJob: driver tests build bare dag.Job values for their identity
// fields; every accessor that takes no phase ID must answer on one.
func TestZeroJob(t *testing.T) {
	var j Job
	if j.NumPhases() != 0 || len(j.Phases()) != 0 || len(j.Roots()) != 0 || len(j.TopoOrder()) != 0 {
		t.Error("zero job reports phases")
	}
	if j.MaxDemand() != 1 || j.TotalTasks() != 0 || j.MaxParallelism() != 0 || j.SerialWork() != 0 || j.CriticalPath() != 0 {
		t.Error("zero job reports work")
	}
	if got := j.String(); got != `job 0 "" (prio=0, 0 phases, 0 tasks)` {
		t.Errorf("String() = %s", got)
	}
}

// TestNewJobAllocatesPerJobNotPerPhase is the allocation guard for the flat
// layout: a job is its struct, its []Phase, the []*Phase index, its []Task
// and its []int arena — five allocations at any phase or task count (the
// per-phase layout cost 6 + 4 per phase and 3 per dependency list).
func TestNewJobAllocatesPerJobNotPerPhase(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	var sink *Job
	for _, phases := range []int{1, 3, 12, 40} {
		specs := make([]PhaseSpec, phases)
		for i := range specs {
			specs[i] = uniformSpec(1+i%5, sec(1))
			if i > 1 {
				specs[i].Deps = []int{i - 1, i - 2, i - 1}
			}
		}
		var m0, m1 runtime.MemStats
		const runs = 200
		runtime.ReadMemStats(&m0)
		for r := 0; r < runs; r++ {
			j, err := NewJob(1, "guard", 1, specs)
			if err != nil {
				t.Fatal(err)
			}
			sink = j
		}
		runtime.ReadMemStats(&m1)
		perJob := float64(m1.Mallocs-m0.Mallocs) / runs
		t.Logf("%2d phases: %.2f mallocs per job", phases, perJob)
		// Past stackPhases the sort's scratch is one more.
		want := 5.0
		if phases > stackPhases {
			want = 6
		}
		if perJob > want+0.5 {
			t.Errorf("%d-phase job costs %.2f mallocs, want %v", phases, perJob, want)
		}
	}
	_ = sink
}
