//ipslint:fixturepath fixture/hotmoved

// Locals the compiler moves to the heap: a leaked address, and a
// parameter whose address is returned (reported in the signature).
package hotmoved

type pair struct{ a, b int }

var sink *pair

//ips:hotpath
func leakedLocal() {
	var x pair // want "moved to heap: x"
	sink = &x
}

//ips:hotpath
func movedParam(x int) *int { // want "moved to heap: x"
	return &x
}
