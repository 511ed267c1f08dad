package sim

import "testing"

func TestRunEngineBenchShape(t *testing.T) {
	res, err := RunEngineBench(5000, 2, []int{2, 2, 4, 0}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 5000 || res.Rounds != 2 {
		t.Fatalf("echoed parameters wrong: %+v", res)
	}
	// Serial baseline first, duplicates and invalid counts dropped: one
	// seeded row per worker count.
	want := []int{1, 2, 4}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d: %+v", len(res.Rows), len(want), res.Rows)
	}
	for i, row := range res.Rows {
		if row.Mode != "seeded" || row.Workers != want[i] {
			t.Fatalf("row %d is %s/%d, want seeded/%d", i, row.Mode, row.Workers, want[i])
		}
		if row.SecondsPerRnd <= 0 {
			t.Fatalf("row %d has non-positive timing: %+v", i, row)
		}
		if row.Speedup <= 0 {
			t.Fatalf("row %d missing speedup: %+v", i, row)
		}
		if row.Fraction < 0.40 || row.Fraction > 0.55 {
			t.Fatalf("row %d fraction %.4f outside the uniform band", i, row.Fraction)
		}
	}
	if len(res.Points) != len(want) {
		t.Fatalf("%d points, want %d", len(res.Points), len(want))
	}
	for i, p := range res.Points {
		if p.Protocol != "engine-seeded" {
			t.Fatalf("point %d has protocol %q, want engine-seeded", i, p.Protocol)
		}
		if p.Workers != want[i] {
			t.Fatalf("point %d has workers %d, want %d", i, p.Workers, want[i])
		}
	}
	if tbl := res.Table(); tbl.NumRows() != len(want) {
		t.Fatalf("table has %d rows", tbl.NumRows())
	}
}

func TestRunEngineBenchValidation(t *testing.T) {
	if _, err := RunEngineBench(0, 1, nil, 1); err == nil {
		t.Error("accepted n = 0")
	}
	if _, err := RunEngineBench(10, 0, nil, 1); err == nil {
		t.Error("accepted rounds = 0")
	}
}
