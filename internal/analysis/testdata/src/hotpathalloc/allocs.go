//ipslint:fixturepath fixture/hotalloc

// The compiler's heap escapes inside //ips:hotpath functions, reported
// in its own words.
package hotalloc

type node struct{ v int }

//ips:hotpath
func escapingComposite() *node {
	n := &node{v: 1} // want "&node\{...\} escapes to heap"
	return n
}

//ips:hotpath
func stackComposite() int {
	n := node{v: 2}
	p := &node{v: 3}
	p.v++
	return n.v + p.v
}

var sink2 []byte

//ips:hotpath
func makes(n int) {
	m := make(map[int]int)
	_ = m
	b := make([]byte, n) // want "make\(\[\]byte, n\) escapes to heap"
	_ = b
	s := make([]byte, 64)
	_ = s
	sink2 = make([]byte, 64) // want "make\(\[\]byte, 64\) escapes to heap"
}

var sinkS string

//ips:hotpath
func conversions(s string, b []byte) {
	bs := []byte(s)
	_ = bs
	sinkS = string(b) // want "string\(b\) escapes to heap"
}

var lookup map[string]int

//ips:hotpath
func mapIndexOptimized(b []byte) int {
	return lookup[string(b)]
}

//ips:hotpath
func closureAndGo(n int) {
	f := func() int { return n } // want "func literal escapes to heap"
	go f()                       // want "dynamic call"
}

//ips:hotpath
func concat(a, b string) string {
	return a + b // want "a \+ b escapes to heap"
}
