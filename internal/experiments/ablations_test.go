package experiments

import "testing"

func TestAblation1Shape(t *testing.T) {
	fig := quickFig(t, "abl1")
	if len(fig.Rows) != 4 {
		t.Fatalf("expected 4 diversity points, got %d", len(fig.Rows))
	}
	for _, row := range fig.Rows {
		// The quality ladder of the design: FLAT worst, then the
		// stages improve, with CONTIG-DP bounding DRP from below.
		if !(row.Values["DRP"] <= row.Values["FLAT"]+1e-9) {
			t.Errorf("Φ=%v: DRP (%v) worse than FLAT (%v)", row.X, row.Values["DRP"], row.Values["FLAT"])
		}
		if !(row.Values["CONTIG-DP"] <= row.Values["DRP"]+1e-9) {
			t.Errorf("Φ=%v: CONTIG-DP (%v) above DRP (%v) — impossible, DP is exact on DRP's space",
				row.X, row.Values["CONTIG-DP"], row.Values["DRP"])
		}
		if !(row.Values["DRP-CDS"] <= row.Values["DRP"]+1e-9) {
			t.Errorf("Φ=%v: CDS hurt DRP", row.X)
		}
	}
}

func TestAblation2Shape(t *testing.T) {
	fig := quickFig(t, "abl2")
	if len(fig.Rows) != 6 {
		t.Fatalf("expected 6 epochs, got %d", len(fig.Rows))
	}
	for _, row := range fig.Rows {
		// Adaptation (either kind) beats staying frozen.
		if !(row.Values["REPLAN"] <= row.Values["FROZEN"]+1e-9) {
			t.Errorf("epoch %v: replanning (%v) worse than frozen (%v)",
				row.X, row.Values["REPLAN"], row.Values["FROZEN"])
		}
		// Replanning tracks a rebuild within a few percent.
		if row.Values["REPLAN"] > row.Values["REBUILD"]*1.08 {
			t.Errorf("epoch %v: replanning (%v) more than 8%% above rebuild (%v)",
				row.X, row.Values["REPLAN"], row.Values["REBUILD"])
		}
		// And with strictly lower churn on average.
		if row.Values["REPLAN-moved"] >= row.Values["REBUILD-moved"] {
			t.Errorf("epoch %v: replan churn (%v) not below rebuild churn (%v)",
				row.X, row.Values["REPLAN-moved"], row.Values["REBUILD-moved"])
		}
	}
}

func TestAblationIDsDispatch(t *testing.T) {
	ids := AblationIDs()
	if len(ids) != 2 {
		t.Fatalf("AblationIDs = %v", ids)
	}
	cfg := Quick()
	cfg.Seeds = cfg.Seeds[:1]
	for _, id := range ids {
		fig, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if fig.ID != id {
			t.Errorf("figure ID %q, want %q", fig.ID, id)
		}
	}
}
