package sim

import (
	"strings"
	"testing"
)

func TestRunLiveScaledQuick(t *testing.T) {
	res, err := RunLiveScaled(ScaleQuick, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two scale rows plus one sensitivity row per model.
	wantRows := 2 + len(liveModels(42, 2000))
	if len(res.Rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(res.Rows), wantRows)
	}
	var syncRounds, loss10Rounds int
	for _, row := range res.Rows {
		if !row.Completed {
			t.Fatalf("row %+v incomplete", row)
		}
		if row.DatingRounds <= 0 || row.MsgsPerSec <= 0 {
			t.Fatalf("row %+v has empty metrics", row)
		}
		if row.N == 2000 && row.Model == "sync" {
			syncRounds = row.DatingRounds
		}
		if row.Model == "loss-10%" {
			loss10Rounds = row.DatingRounds
		}
	}
	if loss10Rounds < syncRounds {
		t.Fatalf("10%% loss spread faster than sync (%d vs %d dating rounds)", loss10Rounds, syncRounds)
	}
	rendered := res.Table().Render()
	if !strings.Contains(rendered, "latency-4") || !strings.Contains(rendered, "churn-10%") {
		t.Fatalf("table missing sensitivity rows:\n%s", rendered)
	}
}

func TestRunLiveBench(t *testing.T) {
	res, err := RunLiveBench(1500, 2, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Fatal("engines disagreed on the spreading trajectory")
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3 (sharded x2 + goroutine)", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row.SecPerDating <= 0 || row.MsgsPerSec <= 0 {
			t.Fatalf("row %+v has empty metrics", row)
		}
		if res.Points[i].Protocol != "live" {
			t.Fatalf("point %d has protocol %q, want live", i, res.Points[i].Protocol)
		}
	}
	if _, err := RunLiveBench(0, 1, false, 1); err == nil {
		t.Error("accepted n = 0")
	}
}
