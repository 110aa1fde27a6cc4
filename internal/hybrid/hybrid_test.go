package hybrid

import (
	"math"
	"testing"

	"diversecast/internal/airsim"
	"diversecast/internal/broadcast"
	"diversecast/internal/core"
	"diversecast/internal/workload"
)

func testDB(tb testing.TB, n int, seed int64) *core.Database {
	tb.Helper()
	return workload.Config{N: n, Theta: 1.0, Phi: 2, Seed: seed}.MustGenerate()
}

func testTrace(tb testing.TB, db *core.Database, requests int, rate float64, seed int64) []workload.Request {
	tb.Helper()
	trace, err := workload.GenerateTrace(db, workload.TraceConfig{Requests: requests, Rate: rate, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	return trace
}

func TestBuildValidation(t *testing.T) {
	db := testDB(t, 20, 1)
	cfg := Config{PushChannels: 3, Bandwidth: 10}
	if _, err := Build(db, cfg, 0); err == nil {
		t.Error("pushCount=0 should fail")
	}
	if _, err := Build(db, cfg, 20); err == nil {
		t.Error("pushCount=N should fail (nothing left to pull)")
	}
	if _, err := Build(db, cfg, 2); err == nil {
		t.Error("fewer pushed items than channels should fail")
	}
	if _, err := Build(db, Config{PushChannels: 0, Bandwidth: 10}, 5); err == nil {
		t.Error("no push channels should fail")
	}
	if _, err := Build(db, Config{PushChannels: 2, Bandwidth: 0}, 5); err == nil {
		t.Error("zero bandwidth should fail")
	}
}

func TestBuildPartitionsByPopularity(t *testing.T) {
	db := testDB(t, 30, 2)
	plan, err := Build(db, Config{PushChannels: 3, Bandwidth: 10}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.PushPositions)+len(plan.PullPositions) != db.Len() {
		t.Fatal("push and pull sets do not partition the database")
	}
	seen := make(map[int]bool)
	for _, pos := range append(append([]int(nil), plan.PushPositions...), plan.PullPositions...) {
		if seen[pos] {
			t.Fatalf("position %d in both sets", pos)
		}
		seen[pos] = true
	}
	// Every pushed item is at least as popular as every pulled item.
	minPush := math.Inf(1)
	for _, pos := range plan.PushPositions {
		if f := db.Item(pos).Freq; f < minPush {
			minPush = f
		}
	}
	for _, pos := range plan.PullPositions {
		if db.Item(pos).Freq > minPush+1e-12 {
			t.Fatalf("pulled item at %d more popular than a pushed one", pos)
		}
	}
	// With Zipf(1.0), the top 10 of 30 items hold most of the mass.
	if plan.PushMass < 0.5 {
		t.Fatalf("push mass %v implausibly low", plan.PushMass)
	}
	if err := plan.Program.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateAccountsForEveryRequest(t *testing.T) {
	db := testDB(t, 30, 3)
	plan, err := Build(db, Config{PushChannels: 3, Bandwidth: 10}, 10)
	if err != nil {
		t.Fatal(err)
	}
	trace := testTrace(t, db, 5000, 10, 4)
	res, err := plan.Evaluate(trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(trace) {
		t.Fatalf("requests %d, want %d", res.Requests, len(trace))
	}
	if res.Push.N+res.Pull.N != len(trace) {
		t.Fatalf("push %d + pull %d != %d", res.Push.N, res.Pull.N, len(trace))
	}
	if res.Wait.N != len(trace) {
		t.Fatalf("overall summary covers %d of %d", res.Wait.N, len(trace))
	}
	if res.UplinkMessages != res.Pull.N {
		t.Fatalf("uplink %d != pull requests %d", res.UplinkMessages, res.Pull.N)
	}
	// Exact mean merge: overall mean is the weighted mean of modes.
	want := (res.Push.Mean*float64(res.Push.N) + res.Pull.Mean*float64(res.Pull.N)) / float64(len(trace))
	if math.Abs(res.Wait.Mean-want) > 1e-9 {
		t.Fatalf("overall mean %v, want weighted %v", res.Wait.Mean, want)
	}
}

func TestHybridBeatsPurePushOnColdTail(t *testing.T) {
	// With a strongly skewed profile and a long cold tail of big
	// items, the hybrid (same total channel count!) beats pure push:
	// the cold tail stops bloating the cyclic programs.
	db := testDB(t, 60, 5)
	const totalChannels = 4
	trace := testTrace(t, db, 8000, 5, 6)

	// Pure push: all items over all channels.
	alloc, err := core.NewDRPCDS().Allocate(db, totalChannels)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := broadcast.Build(alloc, 10, broadcast.ByPosition)
	if err != nil {
		t.Fatal(err)
	}
	pure, err := airsim.Measure(prog, trace)
	if err != nil {
		t.Fatal(err)
	}

	// Hybrid: same number of channels — (total−1) push + 1 pull.
	plan, err := Build(db, Config{PushChannels: totalChannels - 1, Bandwidth: 10}, 20)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := plan.Evaluate(trace)
	if err != nil {
		t.Fatal(err)
	}
	if hyb.Wait.Mean >= pure.Wait.Mean {
		t.Fatalf("hybrid (%v) did not beat pure push (%v) on this workload",
			hyb.Wait.Mean, pure.Wait.Mean)
	}
}

func TestEvaluateEmptyTrace(t *testing.T) {
	db := testDB(t, 20, 9)
	plan, err := Build(db, Config{PushChannels: 2, Bandwidth: 10}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Evaluate(nil); err == nil {
		t.Fatal("empty trace should fail")
	}
}

func BenchmarkHybridEvaluate(b *testing.B) {
	db := testDB(b, 60, 10)
	plan, err := Build(db, Config{PushChannels: 3, Bandwidth: 10}, 20)
	if err != nil {
		b.Fatal(err)
	}
	trace := testTrace(b, db, 3000, 10, 11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Evaluate(trace); err != nil {
			b.Fatal(err)
		}
	}
}
