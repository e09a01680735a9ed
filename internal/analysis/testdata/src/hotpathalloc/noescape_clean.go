//ipslint:fixturepath fixture/hotnoescape

// An address passed to a callee that does not retain it stays on the
// stack: the compiler says &pair{...} does not escape.
package hotnoescape

type pair struct{ a, b int }

//ips:hotpath
func sum(p *pair) int { return p.a + p.b }

//ips:hotpath
func nonRetained() int {
	return sum(&pair{1, 2})
}
