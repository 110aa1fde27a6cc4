// Package diversecast is a Go implementation of channel allocation for
// diverse data broadcasting, reproducing Hung and Chen, "On Exploring
// Channel Allocation in the Diverse Data Broadcasting Environment"
// (ICDCS 2005).
//
// A push-based information server broadcasts N data items — of
// different sizes and different access frequencies — cyclically over K
// channels. This package allocates items to channels so the expected
// client waiting time is minimized, using the paper's DRP (Dimension
// Reduction Partitioning) heuristic refined by CDS (Cost-Diminishing
// Selection), and provides everything around the algorithm a user
// needs: workload generation, broadcast-program compilation, a
// discrete-event air simulator, a real TCP broadcast server/client
// pair, baselines (VF^K, a genetic optimizer, exact search) and the
// harness regenerating every figure of the paper's evaluation.
//
// Quick start:
//
//	db, _ := diversecast.GenerateWorkload(diversecast.WorkloadConfig{
//		N: 120, Theta: 0.8, Phi: 2, Seed: 1,
//	})
//	alloc, _ := diversecast.NewDRPCDS().Allocate(db, 6)
//	fmt.Println(diversecast.WaitingTime(alloc, 10)) // seconds
//	prog, _ := diversecast.BuildProgram(alloc, 10)
package diversecast

import (
	"diversecast/internal/adapt"
	"diversecast/internal/airindex"
	"diversecast/internal/airsim"
	"diversecast/internal/baseline"
	"diversecast/internal/broadcast"
	"diversecast/internal/cache"
	"diversecast/internal/core"
	"diversecast/internal/experiments"
	"diversecast/internal/gopt"
	"diversecast/internal/hybrid"
	"diversecast/internal/netcast"
	"diversecast/internal/ondemand"
	"diversecast/internal/workload"
)

// Core model types.
type (
	// Item is one broadcast data item: an access frequency f and a
	// size z.
	Item = core.Item
	// Database is an immutable collection of items.
	Database = core.Database
	// Allocation assigns every item to one of K channels.
	Allocation = core.Allocation
	// Allocator is the interface every allocation algorithm
	// implements.
	Allocator = core.Allocator
	// Refiner improves an existing allocation (CDS).
	Refiner = core.Refiner
	// GroupAgg is a channel's aggregate frequency/size/count.
	GroupAgg = core.GroupAgg
)

// NewDatabase builds a database from items, validating frequencies and
// sizes.
func NewDatabase(items []Item) (*Database, error) { return core.NewDatabase(items) }

// NewAllocation builds an allocation from an explicit channel vector.
func NewAllocation(db *Database, k int, channel []int) (*Allocation, error) {
	return core.NewAllocation(db, k, channel)
}

// Cost evaluates the paper's grouping cost Σ F_i·Z_i (Eq. 3) — the
// allocation-dependent part of the waiting time.
func Cost(a *Allocation) float64 { return core.Cost(a) }

// WaitingTime evaluates the expected waiting time W_b (Eq. 2) under
// channel bandwidth b.
func WaitingTime(a *Allocation, b float64) float64 { return core.WaitingTime(a, b) }

// NewDRP returns the paper's Dimension Reduction Partitioning
// allocator.
func NewDRP() Allocator { return core.NewDRP() }

// NewCDS returns the paper's Cost-Diminishing Selection refiner.
func NewCDS() Refiner { return core.NewCDS() }

// NewDRPCDS returns the paper's complete two-step scheme (DRP rough
// allocation + CDS refinement), the recommended default.
func NewDRPCDS() Allocator { return core.NewDRPCDS() }

// NewVFK returns the conventional-environment baseline VF^K, which
// considers only access frequencies.
func NewVFK() Allocator { return baseline.NewVFK() }

// NewGOPT returns the genetic-algorithm comparator with the reference
// budget (the paper's optimum stand-in).
func NewGOPT(seed int64) Allocator { return gopt.NewReference(seed) }

// NewExhaustive returns the exact optimal allocator (tiny N only).
func NewExhaustive() Allocator { return baseline.NewExhaustive() }

// PaperExampleDatabase returns the 15-item profile of the paper's
// Table 2, and PaperExampleK its channel count.
func PaperExampleDatabase() *Database { return core.PaperExampleDatabase() }

// PaperExampleK is the channel count of the paper's worked example.
const PaperExampleK = core.PaperExampleK

// Workload generation.
type (
	// WorkloadConfig describes a synthetic broadcast database
	// (Zipf(θ) frequencies, 10^U[0,Φ] sizes).
	WorkloadConfig = workload.Config
	// TraceConfig describes a synthetic client request trace.
	TraceConfig = workload.TraceConfig
	// Request is one client request in a trace.
	Request = workload.Request
	// Catalog is a named scenario database with item titles.
	Catalog = workload.Catalog
)

// PaperBandwidth is the channel bandwidth of the paper's Table 5.
const PaperBandwidth = workload.PaperBandwidth

// GenerateWorkload builds a synthetic database per the paper's
// simulation environment.
func GenerateWorkload(cfg WorkloadConfig) (*Database, error) { return cfg.Generate() }

// GenerateTrace draws a Poisson request trace from the database's
// access frequencies.
func GenerateTrace(db *Database, cfg TraceConfig) ([]Request, error) {
	return workload.GenerateTrace(db, cfg)
}

// CatalogByName constructs a built-in scenario catalog ("media-portal",
// "news-ticker", "traffic-info").
func CatalogByName(name string, seed int64) (*Catalog, error) {
	return workload.CatalogByName(name, seed)
}

// Broadcast programs.
type (
	// Program is an executable broadcast program (per-channel cyclic
	// schedules).
	Program = broadcast.Program
	// SlotOrder selects the item order within a channel cycle.
	SlotOrder = broadcast.SlotOrder
)

// Slot orderings.
const (
	ByPosition  = broadcast.ByPosition
	ByFrequency = broadcast.ByFrequency
	BySize      = broadcast.BySize
)

// BuildProgram compiles an allocation into a broadcast program at the
// given bandwidth.
func BuildProgram(a *Allocation, bandwidth float64) (*Program, error) {
	return broadcast.Build(a, bandwidth, broadcast.ByPosition)
}

// BuildProgramOrdered is BuildProgram with an explicit slot order.
func BuildProgramOrdered(a *Allocation, bandwidth float64, order SlotOrder) (*Program, error) {
	return broadcast.Build(a, bandwidth, order)
}

// Simulation.

// SimResult summarizes a simulation run (waiting-time statistics).
type SimResult = airsim.Result

// Simulate replays a request trace against a program and measures
// empirical probe, download and total waiting times.
func Simulate(p *Program, trace []Request) (*SimResult, error) {
	return airsim.Measure(p, trace)
}

// SimulateEventDriven measures the same quantities through the
// discrete-event engine (slower; validates Simulate).
func SimulateEventDriven(p *Program, trace []Request) (*SimResult, error) {
	return airsim.EventDriven(p, trace)
}

// Air indexing: the (1,m) scheme of "Data on Air" (the paper's
// reference [11]) for power-conserving access — clients read one
// index, doze to their item, and wake to download.
type (
	// IndexedProgram is a broadcast program with (1,m) index segments.
	IndexedProgram = airindex.Program
	// IndexConfig parameterizes the indexing scheme (m, entry size,
	// header size).
	IndexConfig = airindex.Config
	// IndexedResult summarizes latency and tuning time of an indexed
	// simulation.
	IndexedResult = airindex.Result
)

// BuildIndexedProgram lays (1,m) index segments over a broadcast
// program.
func BuildIndexedProgram(p *Program, cfg IndexConfig) (*IndexedProgram, error) {
	return airindex.Build(p, cfg)
}

// SimulateIndexed replays a request trace under the doze protocol,
// measuring both access latency and tuning (listening) time.
func SimulateIndexed(p *IndexedProgram, trace []Request) (*IndexedResult, error) {
	return airindex.Measure(p, trace)
}

// Networked broadcasting.
type (
	// BroadcastServer streams a program over TCP to subscribers.
	BroadcastServer = netcast.Server
	// BroadcastServerConfig parameterizes the server.
	BroadcastServerConfig = netcast.ServerConfig
	// BroadcastClient is a tuned TCP receiver.
	BroadcastClient = netcast.Client
	// Reception is one fully received item transmission.
	Reception = netcast.Reception
)

// ServeBroadcast starts a TCP broadcast server for the program.
func ServeBroadcast(addr string, cfg BroadcastServerConfig) (*BroadcastServer, error) {
	return netcast.Serve(addr, cfg)
}

// TuneBroadcast connects a client to a broadcast server channel.
var TuneBroadcast = netcast.Tune

// Client-side caching (Broadcast Disks, the paper's reference [1]).
type (
	// CachePolicy ranks cache eviction victims (LRU, LFU, PIX, COST).
	CachePolicy = cache.Policy
	// ClientCache is a size-bounded client cache.
	ClientCache = cache.Cache
	// CacheSimResult summarizes a cache-aware client simulation.
	CacheSimResult = cache.SimResult
)

// CachePolicies returns one instance of every built-in cache policy.
func CachePolicies() []CachePolicy { return cache.Policies() }

// NewClientCache builds an empty client cache with the given capacity
// in size units.
func NewClientCache(policy CachePolicy, capacity float64) (*ClientCache, error) {
	return cache.New(policy, capacity)
}

// SimulateWithCache replays a trace for a caching client: hits are
// free, misses wait on the broadcast and admit the item.
func SimulateWithCache(a *Allocation, p *Program, c *ClientCache, trace []Request) (*CacheSimResult, error) {
	return cache.Simulate(a, p, c, trace)
}

// On-demand (pull) broadcasting and the hybrid push/pull architecture.
type (
	// OnDemandScheduler picks which pending item a pull channel airs
	// next (FCFS, MRF, RxW, RxW/S).
	OnDemandScheduler = ondemand.Scheduler
	// OnDemandResult summarizes a pull-mode simulation.
	OnDemandResult = ondemand.Result
	// HybridConfig parameterizes a hybrid push/pull system.
	HybridConfig = hybrid.Config
	// HybridPlan is a compiled hybrid system.
	HybridPlan = hybrid.Plan
	// HybridResult summarizes a hybrid simulation.
	HybridResult = hybrid.Result
)

// OnDemandSchedulers returns one instance of every built-in pull
// scheduler.
func OnDemandSchedulers() []OnDemandScheduler { return ondemand.Schedulers() }

// SimulateOnDemand runs a pull-mode broadcast channel over a request
// trace under the given scheduler.
func SimulateOnDemand(db *Database, trace []Request, sched OnDemandScheduler, bandwidth float64) (*OnDemandResult, error) {
	return ondemand.Run(db, trace, sched, bandwidth)
}

// BuildHybrid compiles a hybrid plan pushing the pushCount hottest
// items and pulling the rest.
func BuildHybrid(db *Database, cfg HybridConfig, pushCount int) (*HybridPlan, error) {
	return hybrid.Build(db, cfg, pushCount)
}

// Adaptation: the server-side loop of the paper's Figure 1
// architecture (collect access patterns → update the program).
type (
	// Tracker estimates access frequencies from observed requests
	// with exponential decay.
	Tracker = adapt.Tracker
	// Churn quantifies how many items a re-allocation moved.
	Churn = adapt.Churn
)

// NewTracker builds a frequency tracker over n items with the given
// half-life in seconds.
func NewTracker(n int, halfLife float64) (*Tracker, error) { return adapt.NewTracker(n, halfLife) }

// Replan adapts an existing allocation to an updated profile (same
// items, new frequencies) via CDS local search, returning the new
// allocation and the churn versus the previous one.
func Replan(prev *Allocation, db *Database) (*Allocation, Churn, error) {
	return adapt.Replan(prev, db)
}

// DriftWorkload perturbs a database's access frequencies
// multiplicatively (popularity drift between reallocation epochs).
func DriftWorkload(db *Database, sigma float64, seed int64) (*Database, error) {
	return workload.Drift(db, sigma, seed)
}

// Experiments.
type (
	// Figure is one regenerated evaluation figure.
	Figure = experiments.Figure
	// ExperimentConfig fixes the non-swept experiment parameters.
	ExperimentConfig = experiments.Config
)

// DefaultExperimentConfig is the full-scale evaluation configuration;
// QuickExperimentConfig a reduced one for smoke runs.
var (
	DefaultExperimentConfig = experiments.Default
	QuickExperimentConfig   = experiments.Quick
)

// RunFigure regenerates one paper figure by id ("fig2".."fig7").
func RunFigure(id string, cfg ExperimentConfig) (*Figure, error) {
	return experiments.Run(id, cfg)
}

// FigureIDs lists the regenerable figures.
func FigureIDs() []string { return experiments.FigureIDs() }
