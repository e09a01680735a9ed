//ipslint:fixturepath fixture/hotbox

// Interface boxing at call sites (the fmt trap), returns and
// assignments, and the pointer-shaped case that boxes for free.
package hotbox

import "fmt"

//ips:hotpath
func printing(v int) {
	fmt.Println(v) // want "v escapes to heap" want "not on the hot-path allowlist"
}

//ips:hotpath
func spread(args []any) {
	fmt.Println(args...) // want "not on the hot-path allowlist"
}

type sink interface{ m() }

type impl struct{ x int }

func (impl) m() {}

var is sink

//ips:hotpath
func assignBox(v impl) {
	is = v // want "v escapes to heap"
}

//ips:hotpath
func returnBox(v impl) any {
	return v // want "v escapes to heap"
}

//ips:hotpath
func ptrBoxFree(p *impl) any {
	return p
}

type ctxKey struct{}

// zeroBox: a zero-sized value never allocates, but the compiler reports
// its conversion; box it once into a package-level variable instead.
//
//ips:hotpath
func zeroBox() any {
	return ctxKey{} // want "ctxKey\{\} escapes to heap"
}

var boxedKey any = ctxKey{}

//ips:hotpath
func zeroBoxHoisted() any {
	return boxedKey
}
