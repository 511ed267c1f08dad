package run

import (
	"reflect"
	"testing"

	"repro/internal/par"
)

// fakeSpec records the options Run hands to Execute and returns a fixed
// report, so the runner's own behaviour can be checked in isolation.
type fakeSpec struct {
	rep  Report
	seen *Options
}

func (f *fakeSpec) Protocol() string { return "fake" }

func (f *fakeSpec) Execute(o *Options) (Report, error) {
	f.seen = o
	return f.rep, nil
}

func TestRunValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		opts []Option
	}{
		{"nil spec", nil, nil},
		{"zero workers", &fakeSpec{}, []Option{WithWorkers(0)}},
		{"negative workers", &fakeSpec{}, []Option{WithWorkers(-3)}},
		{"engine below range", &fakeSpec{}, []Option{WithEngine(-1)}},
		{"engine above range", &fakeSpec{}, []Option{WithEngine(EngineSharded + 1)}},
		{"engine far above range", &fakeSpec{}, []Option{WithEngine(7)}},
	}
	for _, tc := range cases {
		if _, err := Run(tc.spec, tc.opts...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if f, ok := tc.spec.(*fakeSpec); ok && f.seen != nil {
			t.Errorf("%s: Execute ran on rejected options", tc.name)
		}
	}
	for _, e := range []Engine{EngineDefault, EngineGoroutine, EngineSharded} {
		if _, err := Run(&fakeSpec{}, WithEngine(e)); err != nil {
			t.Errorf("engine %d rejected: %v", e, err)
		}
	}
}

func TestRunBudget(t *testing.T) {
	shared, err := par.NewBudget(3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		opts    []Option
		want    int  // budget tokens Execute sees
		isShare bool // Execute must see the shared budget itself
	}{
		{"default", nil, 1, false},
		{"sized from workers", []Option{WithWorkers(5)}, 5, false},
		{"shared budget wins", []Option{WithWorkers(5), WithBudget(shared)}, 3, true},
	}
	for _, tc := range cases {
		f := &fakeSpec{}
		if _, err := Run(f, tc.opts...); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b := f.seen.Budget
		if b == nil {
			t.Fatalf("%s: Execute saw no budget", tc.name)
		}
		if got := b.Total(); got != tc.want {
			t.Errorf("%s: budget of %d tokens, want %d", tc.name, got, tc.want)
		}
		if (b == shared) != tc.isShare {
			t.Errorf("%s: shared budget passed through = %v, want %v", tc.name, b == shared, tc.isShare)
		}
	}
}

func TestRunStampsReport(t *testing.T) {
	cases := []struct {
		name       string
		rep        Report
		wantRounds int
	}{
		{"rounds from trajectory", Report{Trajectory: []int{1, 3, 7}}, 3},
		{"rounds kept when set", Report{Rounds: 9, Trajectory: []int{1, 3, 7}}, 9},
		{"no trajectory", Report{}, 0},
	}
	for _, tc := range cases {
		// Whatever Execute claims, Run owns Protocol, Seed and Workers.
		tc.rep.Protocol, tc.rep.Seed, tc.rep.Workers = "wrong", 99, 99
		rep, err := Run(&fakeSpec{rep: tc.rep}, WithSeed(42), WithWorkers(4))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Protocol != "fake" || rep.Seed != 42 || rep.Workers != 4 {
			t.Errorf("%s: stamped protocol %q seed %d workers %d, want fake/42/4",
				tc.name, rep.Protocol, rep.Seed, rep.Workers)
		}
		if rep.Rounds != tc.wantRounds {
			t.Errorf("%s: rounds %d, want %d", tc.name, rep.Rounds, tc.wantRounds)
		}
	}
}

func TestRunTraceReplay(t *testing.T) {
	traj := []int{1, 2, 5, 9}
	type call struct{ round, progress int }
	var got []call
	_, err := Run(&fakeSpec{rep: Report{Trajectory: traj}},
		WithTrace(func(round, progress int) { got = append(got, call{round, progress}) }))
	if err != nil {
		t.Fatal(err)
	}
	want := []call{{1, 1}, {2, 2}, {3, 5}, {4, 9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace calls %v, want %v", got, want)
	}
}
