package sub

import (
	"reflect"
	"strings"
	"testing"

	"ips/internal/model"
	"ips/internal/query"
)

func TestParseFullPipeline(t *testing.T) {
	q, err := Parse("source(user_profile, 42, 99) | slot(1) | type(2) | window(relative, 90m) | filter(min=3, fid=7, fid=8) | decay(exp, 0.5) | sort(action, click) | topk(25)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Table != "user_profile" || !reflect.DeepEqual(q.IDs, []model.ProfileID{42, 99}) {
		t.Fatalf("source parsed as %q %v", q.Table, q.IDs)
	}
	r := q.Req
	if r.Slot != 1 || r.Type != 2 || r.AllTypes {
		t.Fatalf("slot/type: %+v", r)
	}
	if r.RangeKind != query.Relative || r.Span != 90*60_000 {
		t.Fatalf("window: %+v", r)
	}
	if r.MinCount != 3 || !reflect.DeepEqual(r.FIDs, []model.FeatureID{7, 8}) {
		t.Fatalf("filter: %+v", r)
	}
	if r.Decay != query.DecayExp || r.DecayFactor != 0.5 {
		t.Fatalf("decay: %+v", r)
	}
	if r.SortBy != query.ByAction || r.Action != "click" {
		t.Fatalf("sort: %+v", r)
	}
	if r.K != 25 {
		t.Fatalf("topk: %+v", r)
	}
}

func TestParseDefaults(t *testing.T) {
	q, err := Parse("source(t, 1)")
	if err != nil {
		t.Fatal(err)
	}
	r := q.Req
	if !r.AllTypes || r.RangeKind != query.Current || r.Span != DefaultSpan || r.SortBy != query.ByTotal || r.K != DefaultK {
		t.Fatalf("defaults: %+v", r)
	}
}

func TestParseDurations(t *testing.T) {
	for _, tc := range []struct {
		tok  string
		want model.Millis
	}{
		{"500ms", 500}, {"30s", 30_000}, {"5m", 300_000}, {"2h", 7_200_000}, {"1d", 86_400_000}, {"1500", 1500},
	} {
		q, err := Parse("source(t, 1) | window(current, " + tc.tok + ")")
		if err != nil {
			t.Fatalf("%s: %v", tc.tok, err)
		}
		if q.Req.Span != tc.want {
			t.Fatalf("%s parsed as %d, want %d", tc.tok, q.Req.Span, tc.want)
		}
	}
}

// roundTripPrograms are valid pipelines whose canonical render parses
// back to the same query; FuzzParse seeds its corpus with them.
var roundTripPrograms = []string{
	"source(t, 1)",
	"source(user_profile, 42, 99) | slot(1) | type(2) | window(relative, 90m) | filter(min=3, fid=7) | decay(linear, 0.25) | sort(action, click) | topk(25)",
	"source(t, 5) | window(absolute, 1000, 2000) | sort(fid) | topk(1)",
	"source(t, 1, 2, 3) | sort(udaf, engagement, min=0.5) | topk(100)",
	"source(t, 9) | alltypes() | decay(step, 0.75) | sort(time)",
}

func TestRenderRoundTrip(t *testing.T) {
	for _, src := range roundTripPrograms {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		again, err := Parse(q.Render())
		if err != nil {
			t.Fatalf("render of %q not parseable: %v\nrender: %s", src, err, q.Render())
		}
		if !reflect.DeepEqual(q, again) {
			t.Fatalf("round trip drifted:\n%+v\n%+v\nrender: %s", q, again, q.Render())
		}
		// Canonical form is a fixpoint.
		if q.Render() != again.Render() {
			t.Fatalf("canonical render not stable: %q vs %q", q.Render(), again.Render())
		}
	}
}

func TestRenderForSubset(t *testing.T) {
	q, err := Parse("source(t, 1, 2, 3) | topk(5)")
	if err != nil {
		t.Fatal(err)
	}
	shard, err := Parse(q.RenderFor([]model.ProfileID{2}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shard.IDs, []model.ProfileID{2}) {
		t.Fatalf("shard ids = %v", shard.IDs)
	}
	shard.IDs = q.IDs
	if !reflect.DeepEqual(shard, q) {
		t.Fatalf("shard drifted beyond ids:\n%+v\n%+v", shard, q)
	}
	if q.Sig() != shard.Sig() {
		t.Fatalf("sig differs across shards: %q vs %q", q.Sig(), shard.Sig())
	}
}

// badPrograms are pipelines Parse must reject; FuzzParse seeds its corpus
// with them too.
var badPrograms = []string{
	"",
	"   ",
	"topk(5)",                               // no source
	"source()",                              // no table
	"source(t)",                             // no ids
	"source(t, x)",                          // bad id
	"source(t, 1) | source(t, 2)",           // duplicate source
	"source(t, 1) | topk(0)",                // k out of range
	"source(t, 1) | topk(5) | topk(6)",      // duplicate stage
	"source(t, 1) | type(1) | alltypes()",   // conflicting spellings
	"source(t, 1) | window(current)",        // missing span
	"source(t, 1) | window(absolute, 5, 5)", // empty window
	"source(t, 1) | decay(cubic, 0.5)",      // unknown decay
	"source(t, 1) | decay(exp, 1.5)",        // factor out of range
	"source(t, 1) | sort(action)",           // missing action name
	"source(t, 1) | sort(banana)",           // unknown sort
	"source(t, 1) | filter()",               // empty filter
	"source(t, 1) | filter(max=3)",          // unknown filter key
	"source(t, 1) | mystery(1)",             // unknown stage
	"source(t, 1) |",                        // trailing pipe
	"source(t, 1) | topk(5",                 // unterminated stage
	"source(t 1)",                           // missing comma
	"source(t, 1) | slot(1,2)",              // arity
	"source(t, 1) | window(current, -5s)",   // negative span
	"source(t, 1) | filter(min=3) extra",    // trailing garbage
}

func TestParseErrors(t *testing.T) {
	for _, src := range badPrograms {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

func TestParseTooManyIDs(t *testing.T) {
	var b strings.Builder
	b.WriteString("source(t")
	for i := 0; i <= MaxIDs; i++ {
		b.WriteString(", 1")
	}
	b.WriteString(")")
	if _, err := Parse(b.String()); err == nil {
		t.Fatal("over-MaxIDs source accepted")
	}
}

// FuzzParse: Parse never panics, and every pipeline it accepts renders to
// a canonical form that parses again and renders byte-identically.
func FuzzParse(f *testing.F) {
	for _, src := range append(append([]string(nil), roundTripPrograms...), badPrograms...) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		canon := q.Render()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("render of %q does not parse: %v\nrender: %s", src, err, canon)
		}
		if got := again.Render(); got != canon {
			t.Fatalf("render of %q is not a fixpoint:\n%s\n%s", src, canon, got)
		}
	})
}
