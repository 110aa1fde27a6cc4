package diversecast_test

import (
	"math"
	"testing"
	"time"

	"diversecast"
)

// These tests exercise the public facade end to end, the way a
// downstream user would.

func TestPublicPipeline(t *testing.T) {
	db, err := diversecast.GenerateWorkload(diversecast.WorkloadConfig{
		N: 80, Theta: 0.8, Phi: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	alloc, err := diversecast.NewDRPCDS().Allocate(db, 6)
	if err != nil {
		t.Fatal(err)
	}
	wb := diversecast.WaitingTime(alloc, diversecast.PaperBandwidth)
	if wb <= 0 {
		t.Fatalf("waiting time %v", wb)
	}

	prog, err := diversecast.BuildProgram(alloc, diversecast.PaperBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := diversecast.GenerateTrace(db, diversecast.TraceConfig{
		Requests: 20000, Rate: 40, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := diversecast.Simulate(prog, trace)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Wait.Mean-wb)/wb > 0.05 {
		t.Fatalf("empirical %v vs analytical %v", res.Wait.Mean, wb)
	}
}

func TestPublicAllocatorsAgreeOnOrdering(t *testing.T) {
	db, err := diversecast.GenerateWorkload(diversecast.WorkloadConfig{
		N: 50, Theta: 0.8, Phi: 2.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	costs := make(map[string]float64)
	for _, alg := range []diversecast.Allocator{
		diversecast.NewVFK(),
		diversecast.NewDRP(),
		diversecast.NewDRPCDS(),
		diversecast.NewGOPT(4),
	} {
		a, err := alg.Allocate(db, 5)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		costs[alg.Name()] = diversecast.Cost(a)
	}
	if !(costs["GOPT"] <= costs["DRP-CDS"]*1.02 &&
		costs["DRP-CDS"] <= costs["DRP"]+1e-9 &&
		costs["DRP-CDS"] <= costs["VFK"]+1e-9) {
		t.Fatalf("cost ordering violated: %v", costs)
	}
}

func TestPublicPaperExample(t *testing.T) {
	db := diversecast.PaperExampleDatabase()
	if db.Len() != 15 {
		t.Fatalf("paper database has %d items", db.Len())
	}
	a, err := diversecast.NewDRPCDS().Allocate(db, diversecast.PaperExampleK)
	if err != nil {
		t.Fatal(err)
	}
	// The default DRP follows the published pseudocode (max-cost
	// pops), whose CDS local optimum differs slightly from the
	// worked example's 22.29 (see internal/core's golden tests for
	// the exact reproduction); it must land within a couple percent.
	if c := diversecast.Cost(a); c > 22.29*1.02 {
		t.Fatalf("DRP-CDS cost %v more than 2%% above the paper's 22.29", c)
	}
}

func TestPublicCatalogAndRefiner(t *testing.T) {
	cat, err := diversecast.CatalogByName("media-portal", 5)
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]int, cat.DB.Len())
	for i := range flat {
		flat[i] = i % 4
	}
	a, err := diversecast.NewAllocation(cat.DB, 4, flat)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := diversecast.NewCDS().Refine(a)
	if err != nil {
		t.Fatal(err)
	}
	if diversecast.Cost(refined) > diversecast.Cost(a) {
		t.Fatal("refinement increased cost")
	}
}

func TestPublicNetcastRoundTrip(t *testing.T) {
	db, err := diversecast.NewDatabase([]diversecast.Item{
		{ID: 1, Freq: 0.6, Size: 2},
		{ID: 2, Freq: 0.4, Size: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := diversecast.NewDRPCDS().Allocate(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := diversecast.BuildProgram(alloc, 10)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := diversecast.ServeBroadcast("127.0.0.1:0", diversecast.BroadcastServerConfig{
		Program: prog, TimeScale: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := diversecast.TuneBroadcast(srv.Addr().String(), 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec, wait, err := c.WaitForItem(1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Begin.ItemID != 1 || wait <= 0 {
		t.Fatalf("reception %+v, wait %v", rec.Begin, wait)
	}
}

func TestPublicExperimentDispatch(t *testing.T) {
	cfg := diversecast.QuickExperimentConfig()
	cfg.Seeds = cfg.Seeds[:1]
	fig, err := diversecast.RunFigure("fig4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig4" || len(fig.Rows) == 0 {
		t.Fatalf("figure %+v", fig)
	}
	if len(diversecast.FigureIDs()) != 6 {
		t.Fatal("expected 6 figure ids")
	}
}

func TestPublicOnDemandAndHybrid(t *testing.T) {
	db, err := diversecast.GenerateWorkload(diversecast.WorkloadConfig{
		N: 40, Theta: 1.0, Phi: 2, Seed: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := diversecast.GenerateTrace(db, diversecast.TraceConfig{
		Requests: 2000, Rate: 5, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	scheds := diversecast.OnDemandSchedulers()
	if len(scheds) != 4 {
		t.Fatalf("%d schedulers", len(scheds))
	}
	res, err := diversecast.SimulateOnDemand(db, trace, scheds[2], diversecast.PaperBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(trace) {
		t.Fatalf("served %d", res.Requests)
	}
	plan, err := diversecast.BuildHybrid(db, diversecast.HybridConfig{
		PushChannels: 2, Bandwidth: diversecast.PaperBandwidth,
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := plan.Evaluate(trace)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Push.N+hres.Pull.N != len(trace) {
		t.Fatal("hybrid lost requests")
	}
}

func TestPublicCache(t *testing.T) {
	db, err := diversecast.GenerateWorkload(diversecast.WorkloadConfig{
		N: 30, Theta: 1.0, Phi: 1.5, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := diversecast.NewDRPCDS().Allocate(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := diversecast.BuildProgram(alloc, diversecast.PaperBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := diversecast.GenerateTrace(db, diversecast.TraceConfig{
		Requests: 5000, Rate: 30, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := diversecast.NewClientCache(diversecast.CachePolicies()[2], 40) // PIX
	if err != nil {
		t.Fatal(err)
	}
	res, err := diversecast.SimulateWithCache(alloc, prog, c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRatio <= 0 {
		t.Fatal("cache never hit")
	}
	noCache := diversecast.WaitingTime(alloc, diversecast.PaperBandwidth)
	if res.Wait.Mean >= noCache {
		t.Fatalf("cached wait %v not below analytic no-cache wait %v", res.Wait.Mean, noCache)
	}
}
