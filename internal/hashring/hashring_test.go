package hashring

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmptyRing(t *testing.T) {
	r := New(0)
	if got := r.Get(42); got != "" {
		t.Fatalf("empty ring Get = %q", got)
	}
	if got := r.GetN(42, 3); got != nil {
		t.Fatalf("empty ring GetN = %v", got)
	}
	if r.Len() != 0 {
		t.Fatal("empty ring Len != 0")
	}
}

func TestSingleNode(t *testing.T) {
	r := New(8)
	r.Add("a")
	for k := uint64(0); k < 100; k++ {
		if got := r.Get(k); got != "a" {
			t.Fatalf("Get(%d) = %q", k, got)
		}
	}
}

func TestAddIdempotent(t *testing.T) {
	r := New(8)
	r.Add("a")
	r.Add("a")
	if len(r.points) != 8 {
		t.Fatalf("points = %d, want 8", len(r.points))
	}
}

func TestRemove(t *testing.T) {
	r := New(8)
	r.Add("a")
	r.Add("b")
	r.Remove("a")
	r.Remove("never-there")
	for k := uint64(0); k < 100; k++ {
		if got := r.Get(k); got != "b" {
			t.Fatalf("Get(%d) = %q after removal", k, got)
		}
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestDistributionRoughlyUniform(t *testing.T) {
	r := New(DefaultVirtualNodes)
	const nodes = 8
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	counts := map[string]int{}
	const keys = 50_000
	for k := uint64(0); k < keys; k++ {
		counts[r.Get(k)]++
	}
	want := keys / nodes
	for node, got := range counts {
		if got < want/2 || got > want*2 {
			t.Fatalf("node %s owns %d keys; want within 2x of %d", node, got, want)
		}
	}
}

func TestMinimalRemapOnMembershipChange(t *testing.T) {
	// Consistent hashing's defining property: removing one of N nodes
	// remaps only ~1/N of the keys.
	r := New(DefaultVirtualNodes)
	const nodes = 10
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	const keys = 20_000
	before := make([]string, keys)
	for k := range before {
		before[k] = r.Get(uint64(k))
	}
	r.Remove("node-3")
	moved := 0
	for k := range before {
		after := r.Get(uint64(k))
		if after != before[k] {
			moved++
			if before[k] != "node-3" {
				t.Fatalf("key %d moved from surviving node %s to %s", k, before[k], after)
			}
		}
	}
	// Expect ~10% moved; allow 5%..20%.
	if moved < keys/20 || moved > keys/5 {
		t.Fatalf("moved %d of %d keys; expected ~1/%d", moved, keys, nodes)
	}
}

func TestSetMembersMatchesIncrementalAdds(t *testing.T) {
	a := New(32)
	b := New(32)
	nodes := []string{"x", "y", "z"}
	for _, n := range nodes {
		a.Add(n)
	}
	b.SetMembers(nodes)
	for k := uint64(0); k < 1000; k++ {
		if a.Get(k) != b.Get(k) {
			t.Fatalf("key %d: add-built %q != set-built %q", k, a.Get(k), b.Get(k))
		}
	}
	// Duplicates in SetMembers are ignored.
	b.SetMembers([]string{"x", "x", "y", "z"})
	if b.Len() != 3 || len(b.points) != 3*32 {
		t.Fatalf("dup SetMembers: len=%d points=%d", b.Len(), len(b.points))
	}
}

func TestGetNDistinct(t *testing.T) {
	r := New(32)
	for i := 0; i < 5; i++ {
		r.Add(fmt.Sprintf("n%d", i))
	}
	got := r.GetN(123, 3)
	if len(got) != 3 {
		t.Fatalf("GetN = %v", got)
	}
	seen := map[string]bool{}
	for _, n := range got {
		if seen[n] {
			t.Fatalf("duplicate node in GetN: %v", got)
		}
		seen[n] = true
	}
	if got[0] != r.Get(123) {
		t.Fatal("GetN[0] must equal Get")
	}
	// Request more than membership: capped.
	if got := r.GetN(123, 99); len(got) != 5 {
		t.Fatalf("GetN(99) = %d nodes, want 5", len(got))
	}
}

func TestLookupDeterministicProperty(t *testing.T) {
	r := New(64)
	r.SetMembers([]string{"a", "b", "c", "d"})
	f := func(key uint64) bool {
		return r.Get(key) == r.Get(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := New(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				node := fmt.Sprintf("n%d", i%8)
				switch i % 3 {
				case 0:
					r.Add(node)
				case 1:
					r.Get(uint64(i))
				case 2:
					if w == 0 {
						r.Remove(node)
					} else {
						r.GetN(uint64(i), 2)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestMembersSorted(t *testing.T) {
	r := New(4)
	r.Add("zeta")
	r.Add("alpha")
	m := r.Members()
	if len(m) != 2 || m[0] != "alpha" || m[1] != "zeta" {
		t.Fatalf("Members = %v", m)
	}
}

func BenchmarkGet(b *testing.B) {
	r := New(DefaultVirtualNodes)
	for i := 0; i < 16; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Get(uint64(i))
	}
}

// TestAppendNIntoCallerStorage: AppendN appends after what dst already
// holds, agrees with GetN, and with capacity in hand allocates nothing —
// the client's failover ladder runs it over a stack array per read.
func TestAppendNIntoCallerStorage(t *testing.T) {
	r := New(32)
	for i := 0; i < 5; i++ {
		r.Add(fmt.Sprintf("n%d", i))
	}
	var arr [8]string
	for key := uint64(0); key < 200; key++ {
		dst := append(arr[:0], "kept")
		got := r.AppendN(dst, key, 3)
		if got[0] != "kept" || fmt.Sprint(got[1:]) != fmt.Sprint(r.GetN(key, 3)) {
			t.Fatalf("key %d: AppendN = %v, GetN = %v", key, got, r.GetN(key, 3))
		}
	}
	if got := New(0).AppendN(arr[:0], 1, 3); len(got) != 0 {
		t.Fatalf("empty ring appended %v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = r.AppendN(arr[:0], 99, 3) }); allocs != 0 {
		t.Fatalf("AppendN into a stack array: %.1f allocs/run, want 0", allocs)
	}
}
