package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"
)

// TestMain lets the test binary serve as the measuring process measure
// re-executes (os.Executable is the test binary here).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--child" {
		if err := realMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// contract is the part of BENCHMARK.json the smoke test checks against.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []entry                 `json:"end_to_end"`
	PerLayer  []entry                 `json:"per_layer"`
}

type entry struct{ Name, Unit string }

// units maps each contract metric to its unit.
func units(es []entry) map[string]string {
	out := map[string]string{}
	for _, e := range es {
		out[e.Name] = e.Unit
	}
	return out
}

// checkMetrics reports emitted metrics that are missing from the contract,
// carry another unit, or leave a contract metric out.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []entry) {
	t.Helper()
	u := units(want)
	for name, m := range got {
		if unit, ok := u[name]; !ok {
			t.Errorf("%s emits %s, which BENCHMARK.json does not name", what, name)
		} else if unit != m.Unit {
			t.Errorf("%s emits %s in %s, BENCHMARK.json says %s", what, name, m.Unit, unit)
		}
	}
	for name := range u {
		if _, ok := got[name]; !ok {
			t.Errorf("%s does not emit %s", what, name)
		}
	}
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func names[T any](xs []T, name func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = name(x)
	}
	slices.Sort(out)
	return out
}

// TestSmoke drives every workload at smokeN through the same measure and
// traced paths the benchmark runs, at the default seed: every run must pass
// its checks (including the pinned digests), and every metric BENCHMARK.json
// names must be emitted, and no other.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs every workload")
	}
	c := loadContract(t)
	saved := slices.Clone(workloads)
	defer func() { workloads = saved }()
	for i := range workloads {
		workloads[i].n = smokeN
	}
	if got, want := names(workloads, func(w workload) string { return w.name }),
		names(c.Workloads, func(x struct{ Name string }) string { return x.Name }); !slices.Equal(got, want) {
		t.Fatalf("workloads %v, BENCHMARK.json names %v", got, want)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.reference(defaultSeed, smokeN) == nil {
				t.Fatalf("no pinned digest at n=%d", smokeN)
			}
			res, err := measure(w, defaultSeed, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < procs {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, "untraced run", res.Metrics, c.EndToEnd)
			res, err = traced(w, defaultSeed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, "traced run", res.Metrics, c.PerLayer)
		})
	}
}

// TestDigestsRepeatAcrossSeeds checks the rule for unpinned seeds: the
// first run's outcome is the reference and every later run must repeat it.
func TestDigestsRepeatAcrossSeeds(t *testing.T) {
	w, err := findWorkload("rumor-dating")
	if err != nil {
		t.Fatal(err)
	}
	w.n = 5_000
	if w.reference(11, w.n) != nil {
		t.Fatal("seed 11 should have no pinned reference")
	}
	res, err := measure(w, 11, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}
