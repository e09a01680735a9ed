//ipslint:fixturepath fixture/hotcalls

// The interprocedural marking rule: same-module callees must be marked
// or trusted, foreign callees must be allowlisted, trust needs a reason.
// A callee the rule accepts answers for its own body, so its escapes,
// inlined at the call's '(', are not reported in the caller.
package hotcalls

import (
	"strconv"
	"sync/atomic"
)

var counter atomic.Uint64

//ips:hotpath
func leaf() uint64 {
	return counter.Add(1)
}

//ips:hotpath
func caller() uint64 {
	return leaf()
}

func unmarked() {}

//ips:hotpath
func frontier() {
	unmarked() // want "not marked //ips:hotpath"
}

//ips:hotpath-trust pooled constructor, vetted by hand
func pooled() *int { return new(int) }

//ips:hotpath
func usesTrusted() *int {
	return pooled()
}

func unmarkedAlloc() *int { return new(int) }

//ips:hotpath
func usesUnmarked() *int {
	return unmarkedAlloc() // want "not marked //ips:hotpath" want "new\(int\) escapes to heap"
}

var kept *int

//ips:hotpath-trust retains its argument, vetted by hand
func retain(p *int) { kept = p }

//ips:hotpath
func argumentEscapes() {
	retain(new(int)) // want "new\(int\) escapes to heap"
}

//ips:hotpath-trust
func badTrust() {} // want "needs a reason"

//ips:hotpath
func itoa(n int) string {
	return strconv.Itoa(n) // want "not on the hot-path allowlist"
}
