//go:build race

package rpc

// raceEnabled: the race detector slows the serving loop by an order of
// magnitude, which moves bounds that depend on microsecond handlers.
const raceEnabled = true
