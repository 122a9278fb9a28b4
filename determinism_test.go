package symbol

import "testing"

// The whole pipeline must be deterministic: compiling and scheduling the
// same source twice yields identical code and identical cycle counts
// (important for reproducible experiment tables).
func TestPipelineDeterminism(t *testing.T) {
	src := benchMust(t, "serialise")
	var listings [2]string
	var cycles [2]int64
	for i := 0; i < 2; i++ {
		prog := mustLoad(t, src)
		sched, err := prog.ScheduleWith(DefaultMachine(3))
		if err != nil {
			t.Fatal(err)
		}
		listings[i] = sched.Listing()
		sim, err := sched.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		cycles[i] = sim.Cycles
	}
	if listings[0] != listings[1] {
		t.Error("schedules differ between identical compilations")
	}
	if cycles[0] != cycles[1] {
		t.Errorf("cycle counts differ: %d vs %d", cycles[0], cycles[1])
	}
}

// Scheduling twice from one compiled program must also be stable (the
// profile is cached; compaction must not mutate shared state).
func TestScheduleIsRepeatable(t *testing.T) {
	prog := mustLoad(t, benchMust(t, "qsort"))
	s1, err := prog.ScheduleWith(DefaultMachine(2))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := prog.ScheduleWith(DefaultMachine(2))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Listing() != s2.Listing() {
		t.Error("re-scheduling produced different code")
	}
	r1, err := s1.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Output != r2.Output {
		t.Error("simulation not repeatable")
	}
}
