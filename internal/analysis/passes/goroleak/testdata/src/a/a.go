// Corpus for goroleak: goroutines must have a join or cancel signal.
package a

import (
	"context"
	"sync"
	"time"
)

type client struct {
	out  chan string
	quit chan struct{}
	done chan struct{}
	sink string
	n    int
}

// Flagged: the PR-1 stranded-writeLoop reconstruction — nothing in
// this package ever closes c.out, so the range parks forever.
func (c *client) startLeaky() {
	go c.writeLoop() // want `goroutine has no join or cancel signal.*stranded-writeLoop`
}

func (c *client) writeLoop() {
	for m := range c.out {
		c.sink = m
	}
}

// Clean: ranging a channel the package closes ends when Close runs.
func (c *client) startDrained() {
	go c.drainLoop()
}

func (c *client) drainLoop() {
	for range c.done {
	}
}

func (c *client) Close() { close(c.done) }

// Flagged: a busy loop with no exit can never be joined — even a
// deferred Done would never run.
func (c *client) startSpinner() {
	go func() { // want `goroutine can never return`
		for {
			c.n++
		}
	}()
}

// Flagged: a named pump with an exit-free select loop is the same
// leak with extra steps.
func (c *client) startPump() {
	go c.pump() // want `goroutine can never return`
}

func (c *client) pump() {
	for {
		select {
		case m := <-c.out:
			c.sink = m
		}
	}
}

// Clean: the context case gives shutdown a handle.
func (c *client) startCtx(ctx context.Context) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case m := <-c.out:
				c.sink = m
			}
		}
	}()
}

// Clean: worker-pool idiom — WaitGroup accounting is join evidence
// even though nothing here closes tasks (the producer does).
func pool(wg *sync.WaitGroup, tasks chan int) {
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				_ = t
			}
		}()
	}
}

// Clean: a quit channel that receives a value send counts as signaled.
func (c *client) startQuit() {
	go func() {
		for {
			if c.step() {
				return
			}
			<-c.quit
		}
	}()
}

func (c *client) Stop()      { c.quit <- struct{}{} }
func (c *client) step() bool { return c.n > 0 }

// Clean: a one-shot wait on a channel the package closes.
func (c *client) startWaiter() {
	go func() {
		<-c.done
		c.n = 0
	}()
}

// Skipped: calls that resolve outside the package are that package's
// concern.
func bootLog() {
	go println("boot")
}

// Seeds goroleak-1 and ctxloop-3 (internal/analysis/testdata/mutations):
// a metrics sampler ranges over its ticker, or loops on a bare ticker
// receive, and never looks at the done channel its stop function
// closes. stop returns, the sampler runs for the life of the process,
// and no test notices.
func startSampler(sample func()) (stop func()) {
	done := make(chan struct{})
	go func() { // want `goroutine has no join or cancel signal`
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for range t.C {
			sample()
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

func startTicking(sample func()) (stop func()) {
	done := make(chan struct{})
	go func() { // want `goroutine can never return`
		t := time.NewTicker(time.Second)
		for {
			<-t.C
			sample()
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
