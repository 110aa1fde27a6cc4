// Corpus for errdrop: errors from hot-path packages must be handled.
package a

import "wire"

// Flagged: result ignored entirely.
func send(v any) {
	wire.WriteJSON(v) // want `error returned by wire\.WriteJSON is discarded`
}

// Flagged: explicitly blanked.
func sendBlank(v any) {
	_ = wire.WriteJSON(v) // want `error returned by wire\.WriteJSON is assigned to _`
}

// Flagged: error position blanked in a multi-assign.
func recv(v any) int {
	n, _ := wire.ReadJSON(v) // want `error returned by wire\.ReadJSON is assigned to _`
	return n
}

// Flagged: method calls count the same as package functions.
func drop(c *wire.Conn) {
	c.Flush() // want `error returned by c\.Flush is discarded`
}

// Clean: propagated.
func forward(v any) error {
	return wire.WriteJSON(v)
}

// Clean: handled.
func handled(v any) bool {
	if err := wire.WriteJSON(v); err != nil {
		return false
	}
	return true
}

// Clean: no error in the signature.
func sized(v any) int {
	return wire.Size(v)
}

// Clean: non-error results may be blanked.
func stats(c *wire.Conn) bool {
	_, ok := c.Stats()
	return ok
}

// Clean: deferred cleanup has nowhere to send an error.
func closer(c *wire.Conn) {
	defer c.Flush()
}

// Clean: drops from non-hot packages are some other linter's beat.
func localDrop() {
	localErr()
}

func localErr() error { return nil }

// Seeds errdrop-1 and errdrop-2 (internal/analysis/testdata/mutations):
// the server handshake drops the Hello write's error and reads a
// Subscribe from a peer that never got one; the client blanks the
// Subscribe write's error and waits for frames that never come. No
// test, race run or gate notices either.
func handshake(hello any) {
	wire.WriteJSON(hello) // want `error returned by wire\.WriteJSON is discarded`
}

func subscribe(sub any) {
	_ = wire.WriteJSON(sub) // want `error returned by wire\.WriteJSON is assigned to _`
}
