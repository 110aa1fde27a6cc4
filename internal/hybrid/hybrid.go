// Package hybrid combines the two dissemination modes of the
// reproduced paper's world: the hottest items are pushed on cyclic
// broadcast channels (allocated with DRP-CDS) while the cold tail is
// served on demand over a dedicated pull channel. This is the classic
// hybrid architecture (Acharya, Franklin, Zdonik): push soaks up the
// mass demand with zero uplink cost, pull keeps rarely wanted items
// from bloating every cycle.
package hybrid

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"diversecast/internal/broadcast"
	"diversecast/internal/core"
	"diversecast/internal/ondemand"
	"diversecast/internal/stats"
	"diversecast/internal/workload"
)

// Config parameterizes a hybrid system.
type Config struct {
	// PushChannels is the number of cyclic broadcast channels.
	PushChannels int
	// Bandwidth is the per-channel bandwidth (the pull channel has
	// the same).
	Bandwidth float64
	// Allocator allocates the push set across the push channels
	// (default DRP-CDS).
	Allocator core.Allocator
	// Scheduler drives the pull channel (default RxW/S).
	Scheduler ondemand.Scheduler
}

func (c Config) withDefaults() (Config, error) {
	if c.PushChannels < 1 {
		return c, fmt.Errorf("hybrid: need at least one push channel, got %d", c.PushChannels)
	}
	if !(c.Bandwidth > 0) || math.IsInf(c.Bandwidth, 0) {
		return c, fmt.Errorf("hybrid: bandwidth %v", c.Bandwidth)
	}
	if c.Allocator == nil {
		c.Allocator = core.NewDRPCDS()
	}
	if c.Scheduler == nil {
		c.Scheduler = ondemand.RxWS{}
	}
	return c, nil
}

// Plan is a compiled hybrid system: which items are pushed, the push
// program, and the pull-side database.
type Plan struct {
	cfg Config

	// PushPositions and PullPositions partition the original
	// database positions; the hottest pushCount items (by access
	// frequency) are pushed.
	PushPositions []int
	PullPositions []int

	// PushMass is the total access frequency served by push.
	PushMass float64

	// Program is the cyclic program over the push subset.
	Program *broadcast.Program

	// pushIndex maps original position → position in the push
	// database; pullIndex likewise for the pull database.
	pushIndex map[int]int
	pullIndex map[int]int
	pullDB    *core.Database
}

// Build errors.
var (
	ErrBadCut = errors.New("hybrid: push count must satisfy 1 <= pushCount < N")
)

// Build compiles a hybrid plan that pushes the pushCount most
// requested items and serves the rest on demand.
func Build(db *core.Database, cfg Config, pushCount int) (*Plan, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if pushCount < 1 || pushCount >= db.Len() {
		return nil, fmt.Errorf("%w: pushCount=%d, N=%d", ErrBadCut, pushCount, db.Len())
	}
	if cfg.PushChannels > pushCount {
		return nil, fmt.Errorf("hybrid: %d push channels for %d pushed items", cfg.PushChannels, pushCount)
	}

	byFreq := db.ByFreq()
	plan := &Plan{
		cfg:           cfg,
		PushPositions: append([]int(nil), byFreq[:pushCount]...),
		PullPositions: append([]int(nil), byFreq[pushCount:]...),
		pushIndex:     make(map[int]int, pushCount),
		pullIndex:     make(map[int]int, db.Len()-pushCount),
	}
	sort.Ints(plan.PushPositions)
	sort.Ints(plan.PullPositions)

	// The push database re-normalizes the pushed items' frequencies:
	// the broadcast program only ever serves requests for them, so
	// their conditional access distribution is what matters.
	pushItems := make([]core.Item, pushCount)
	for i, pos := range plan.PushPositions {
		pushItems[i] = db.Item(pos)
		plan.PushMass += db.Item(pos).Freq
		plan.pushIndex[pos] = i
	}
	pushDB, err := core.NewDatabase(pushItems)
	if err != nil {
		return nil, fmt.Errorf("hybrid: push database: %w", err)
	}
	pushDB = pushDB.Normalized()

	pullItems := make([]core.Item, len(plan.PullPositions))
	for i, pos := range plan.PullPositions {
		pullItems[i] = db.Item(pos)
		plan.pullIndex[pos] = i
	}
	plan.pullDB, err = core.NewDatabase(pullItems)
	if err != nil {
		return nil, fmt.Errorf("hybrid: pull database: %w", err)
	}
	plan.pullDB = plan.pullDB.Normalized()

	alloc, err := cfg.Allocator.Allocate(pushDB, cfg.PushChannels)
	if err != nil {
		return nil, fmt.Errorf("hybrid: allocating push set: %w", err)
	}
	plan.Program, err = broadcast.Build(alloc, cfg.Bandwidth, broadcast.ByPosition)
	if err != nil {
		return nil, fmt.Errorf("hybrid: compiling program: %w", err)
	}
	return plan, nil
}

// Result summarizes a hybrid simulation.
type Result struct {
	Requests int
	// Wait is the overall request waiting time across both modes.
	Wait stats.Summary
	// Push and Pull are the per-mode waiting times.
	Push stats.Summary
	Pull stats.Summary
	// UplinkMessages counts requests that needed the uplink (the
	// pull ones); push requests are served silently.
	UplinkMessages int
}

// Evaluate replays a request trace against the plan: requests for
// pushed items wait on the cyclic program; the rest queue on the pull
// channel.
func (p *Plan) Evaluate(trace []workload.Request) (*Result, error) {
	if len(trace) == 0 {
		return nil, errors.New("hybrid: empty request trace")
	}
	var pullTrace []workload.Request
	var all, push stats.Accumulator
	for _, r := range trace {
		if _, ok := p.pushIndex[r.Pos]; ok {
			continue
		}
		if _, ok := p.pullIndex[r.Pos]; !ok {
			return nil, fmt.Errorf("hybrid: request for unknown position %d", r.Pos)
		}
		pullTrace = append(pullTrace, workload.Request{Time: r.Time, Pos: p.pullIndex[r.Pos]})
	}

	// Push side: closed-form waits on the cyclic schedule.
	for _, r := range trace {
		pi, ok := p.pushIndex[r.Pos]
		if !ok {
			continue
		}
		w, err := p.Program.WaitFor(pi, r.Time)
		if err != nil {
			return nil, fmt.Errorf("hybrid: push wait: %w", err)
		}
		push.Add(w)
		all.Add(w)
	}

	res := &Result{Requests: len(trace), UplinkMessages: len(pullTrace)}

	// Pull side: on-demand simulation over the pull sub-trace, with
	// per-request waits folded exactly into the overall summary.
	if len(pullTrace) > 0 {
		pullRes, waits, err := ondemand.RunWaits(p.pullDB, pullTrace, p.cfg.Scheduler, p.cfg.Bandwidth)
		if err != nil {
			return nil, fmt.Errorf("hybrid: pull side: %w", err)
		}
		res.Pull = pullRes.Wait
		for _, w := range waits {
			all.Add(w)
		}
	}
	res.Push = push.Summarize()
	res.Wait = all.Summarize()
	return res, nil
}
