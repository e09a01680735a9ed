package wire

import (
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"ips/internal/query"
)

func TestAddRoundTrip(t *testing.T) {
	in := &AddRequest{
		Caller:    "feeds",
		Table:     "user_profile",
		ProfileID: 0xdeadbeef,
		Entries: []AddEntry{
			{Timestamp: 123456, Slot: 1, Type: 2, FID: 99, Counts: []int64{1, -2, 3}},
			{Timestamp: 123457, Slot: 4, Type: 5, FID: 100, Counts: []int64{7}},
		},
	}
	out, err := DecodeAdd(EncodeAdd(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestAddEmptyEntries(t *testing.T) {
	in := &AddRequest{Caller: "c", Table: "t", ProfileID: 1}
	out, err := DecodeAdd(EncodeAdd(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 0 {
		t.Fatalf("entries = %v", out.Entries)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	in := &QueryRequest{
		Caller: "ads", Table: "t", ProfileID: 7,
		Slot: 3, Type: 4, AllTypes: true,
		RangeKind: query.Absolute, Span: 1000, From: 50, To: 900,
		SortBy: query.ByTimestamp, Action: "like", K: 10,
		Decay: query.DecayExp, DecayFactor: 0.75,
		MinCount: 5, FIDs: []uint64{1, 2, 3},
	}
	out, err := DecodeQuery(EncodeQuery(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestQueryRoundTripProperty(t *testing.T) {
	f := func(profile uint64, slot, typ uint32, span int64, k uint8, action string) bool {
		in := &QueryRequest{
			Caller: "c", Table: "t", ProfileID: profile,
			Slot: slot, Type: typ,
			RangeKind: query.Current, Span: span,
			SortBy: query.ByAction, Action: action, K: int(k),
		}
		out, err := DecodeQuery(EncodeQuery(in))
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestToQueryFilterMapping(t *testing.T) {
	q := &QueryRequest{MinCount: 3, FIDs: []uint64{9, 10}, RangeKind: query.Current, Span: 100}
	req := q.ToQuery()
	if req.Filter == nil {
		t.Fatal("filter not built")
	}
	if req.Filter.MinCount != 3 {
		t.Fatalf("min count = %d", req.Filter.MinCount)
	}
	if !req.Filter.FIDs[9] || !req.Filter.FIDs[10] || req.Filter.FIDs[11] {
		t.Fatalf("fids = %v", req.Filter.FIDs)
	}
	// No filter fields: nil filter.
	q2 := &QueryRequest{RangeKind: query.Current, Span: 100}
	if q2.ToQuery().Filter != nil {
		t.Fatal("empty filter should map to nil")
	}
}

func TestQueryResponseRoundTrip(t *testing.T) {
	in := &QueryResponse{
		Features: []query.Feature{
			{FID: 1, Counts: []int64{5, 6}, LastSeen: 1000},
			{FID: 2, Counts: []int64{-1}, LastSeen: 2000},
		},
		SlicesScanned: 17,
		CacheHit:      true,
		ServerNanos:   123456789,
	}
	out, err := DecodeQueryResponse(EncodeQueryResponse(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestEmptyQueryResponse(t *testing.T) {
	out, err := DecodeQueryResponse(EncodeQueryResponse(&QueryResponse{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Features) != 0 || out.CacheHit {
		t.Fatalf("out = %+v", out)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	in := &StatsResponse{
		Name: "ips-0", Region: "east",
		Profiles: 100, MemUsage: 1 << 30, HitRatioPct: 93.5,
		Queries: 1e6, Writes: 1e5, Rejected: 42, FlushErrors: 1,
	}
	out, err := DecodeStats(EncodeStats(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestDecodeGarbage(t *testing.T) {
	junk := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := DecodeAdd(junk); err == nil {
		t.Fatal("DecodeAdd should fail on garbage")
	}
	if _, err := DecodeQuery(junk); err == nil {
		t.Fatal("DecodeQuery should fail on garbage")
	}
	if _, err := DecodeQueryResponse(junk); err == nil {
		t.Fatal("DecodeQueryResponse should fail on garbage")
	}
	if _, err := DecodeStats(junk); err == nil {
		t.Fatal("DecodeStats should fail on garbage")
	}
}

func TestDecodeNeverPanicsProperty(t *testing.T) {
	f := func(junk []byte) bool {
		_, _ = DecodeAdd(junk)
		_, _ = DecodeQuery(junk)
		_, _ = DecodeQueryResponse(junk)
		_, _ = DecodeStats(junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendAddMatchesEncodeAdd: the append form encodes the same bytes
// after whatever dst already holds, and a reused dst costs no allocation.
func TestAppendAddMatchesEncodeAdd(t *testing.T) {
	in := &AddRequest{
		Caller: "feeds", Table: "user_profile", ProfileID: 0xdeadbeef,
		Entries: []AddEntry{
			{Timestamp: 123456, Slot: 1, Type: 2, FID: 99, Counts: []int64{1, -2, 3}},
			{Timestamp: 123457, Slot: 4, Type: 5, FID: 100, Counts: make([]int64, 200)}, // nested message over 127 bytes
		},
	}
	want := EncodeAdd(in)
	got := AppendAdd([]byte("prefix"), in)
	if string(got[:6]) != "prefix" || !reflect.DeepEqual(got[6:], want) {
		t.Fatal("AppendAdd differs from EncodeAdd")
	}
	out, err := DecodeAdd(got[6:])
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %v\n in: %+v\nout: %+v", err, in, out)
	}
	buf := make([]byte, 0, 2*len(want))
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendAdd(buf[:0], in) }); allocs != 0 {
		t.Fatalf("AppendAdd into a reused buffer: %.1f allocs/run, want 0", allocs)
	}
}

// squareResponse is the frame that turns "features × counts of the first
// feature" against the decoder: one feature packing n counts, then n
// features packing none — 3n bytes that name n² counts.
func squareResponse(n int) []byte {
	r := &QueryResponse{Features: make([]query.Feature, n+1)}
	r.Features[0].Counts = make([]int64, n)
	return EncodeQueryResponse(r)
}

// TestDecodeQueryResponseStaysLinear: the flat array is sized from the
// frame's shape but never beyond the frame's length, so the decode of a
// 600 KB frame allocates megabytes, not the 298 GiB its shape names.
func TestDecodeQueryResponseStaysLinear(t *testing.T) {
	const n = 200_000
	data := squareResponse(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := DecodeQueryResponse(data)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Features) != n+1 || len(out.Features[0].Counts) != n || len(out.Features[n].Counts) != 0 {
		t.Fatalf("decoded %d features, first with %d counts", len(out.Features), len(out.Features[0].Counts))
	}
	// Features are 48 bytes for every 2 the frame spends on an empty one;
	// the counts array adds 8 per frame byte.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)); got > limit {
		t.Fatalf("decoding a %d-byte frame allocated %d bytes, want at most %d", len(data), got, limit)
	}
}

// TestDecodeQueryResponseIsFlat: the owning decode costs three
// allocations whatever K is (response, features, one array all Counts are
// carved from), equals the decode into reused storage, and keeps every
// feature's Counts capacity-limited so appending to one cannot run into
// its neighbour.
func TestDecodeQueryResponseIsFlat(t *testing.T) {
	for _, k := range []int{1, 20, 50} {
		in := &QueryResponse{SlicesScanned: 9, CacheHit: true, ServerNanos: 1234, WalLSN: 77}
		for i := 0; i < k; i++ {
			in.Features = append(in.Features, query.Feature{
				FID: uint64(1000 + i), Counts: []int64{int64(i), -int64(i), 1 << 40}, LastSeen: int64(i) * 1000, Score: float64(i) / 3,
			})
		}
		if k > 2 {
			in.Features[1].Counts = nil // a feature without counts, between ones with
		}
		data := EncodeQueryResponse(in)

		out, err := DecodeQueryResponse(data)
		if err != nil {
			t.Fatal(err)
		}
		var into QueryResponse
		if err := DecodeQueryResponseInto(data, &into); err != nil {
			t.Fatal(err)
		}
		if len(out.Features) != k || out.WalLSN != 77 || !out.CacheHit {
			t.Fatalf("K=%d: decoded %d features, wal %d, hit %v", k, len(out.Features), out.WalLSN, out.CacheHit)
		}
		for i := range out.Features {
			got, want := out.Features[i], into.Features[i]
			if got.FID != want.FID || got.LastSeen != want.LastSeen || got.Score != want.Score ||
				len(got.Counts) != len(want.Counts) || len(got.Counts) > 0 && !reflect.DeepEqual(got.Counts, want.Counts) {
				t.Fatalf("K=%d feature %d: flat decode %+v differs from the decode into reused storage %+v", k, i, got, want)
			}
		}
		for i := range out.Features {
			if c := out.Features[i].Counts; cap(c) != len(c) {
				t.Fatalf("K=%d feature %d: Counts len %d cap %d — an append would overwrite the next feature", k, i, len(c), cap(c))
			}
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeQueryResponse(data); err != nil {
				t.Fatal(err)
			}
		}); allocs > 3 {
			t.Fatalf("K=%d: DecodeQueryResponse costs %.1f allocs, want at most 3", k, allocs)
		}
	}

	// The flat array is sized from the first feature. A frame whose later
	// features carry more counts than the first still decodes exactly;
	// the extra vectors get storage of their own.
	odd := &QueryResponse{Features: []query.Feature{
		{FID: 1, Counts: []int64{1}}, {FID: 2, Counts: []int64{1, 2, 3}}, {FID: 3, Counts: []int64{4, 5}},
	}}
	out, err := DecodeQueryResponse(EncodeQueryResponse(odd))
	if err != nil || !reflect.DeepEqual(out, odd) {
		t.Fatalf("uneven count vectors: %v\n got %+v\nwant %+v", err, out, odd)
	}
}
