package rpc

import (
	"context"
	"testing"
	"time"

	"ips/internal/trace"
)

// TestTracedCallGraftsServerSpans proves the traced frame round trip:
// the server continues the client's trace, its spans come back in the
// traced response, and the client grafts them under the roundtrip span.
func TestTracedCallGraftsServerSpans(t *testing.T) {
	srv := NewServer()
	srv.Handle("echo", func(ctx context.Context, p, _ []byte) ([]byte, error) {
		sp := trace.StartLeaf(ctx, trace.StageCacheGet)
		sp.SetFlags(trace.FlagCacheHit)
		sp.End()
		return p, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(addr)
	defer cl.Close()

	tr := trace.New()
	ctx := trace.NewContext(context.Background(), tr)
	ctx, root := trace.StartSpan(ctx, trace.StageClientQuery)
	resp, err := cl.CallCtx(ctx, "echo", []byte("hi"))
	root.End()
	if err != nil || string(resp) != "hi" {
		t.Fatalf("CallCtx: %q, %v", resp, err)
	}

	spans := tr.Spans()
	if err := trace.Validate(spans, 5*time.Millisecond); err != nil {
		t.Fatalf("grafted trace ill-formed: %v\nspans: %+v", err, spans)
	}
	stages := map[trace.Stage]trace.Span{}
	for _, sp := range spans {
		stages[sp.Stage] = sp
	}
	for _, want := range []trace.Stage{trace.StageClientQuery, trace.StageRPCDial,
		trace.StageRPCRoundtrip, trace.StageServerDispatch, trace.StageCacheGet} {
		if _, ok := stages[want]; !ok {
			t.Fatalf("stage %v missing from trace: %+v", want, spans)
		}
	}
	if stages[trace.StageServerDispatch].Parent != stages[trace.StageRPCRoundtrip].ID {
		t.Fatal("server dispatch span not grafted under the roundtrip span")
	}
	if stages[trace.StageCacheGet].Flags&trace.FlagCacheHit == 0 {
		t.Fatal("server span flags lost in transit")
	}
}

// TestUntracedCallStaysUntraced pins that a context without a trace uses
// the legacy frame kinds and the handler sees an untraced context.
func TestUntracedCallStaysUntraced(t *testing.T) {
	srv := NewServer()
	srv.Handle("probe", func(ctx context.Context, p, _ []byte) ([]byte, error) {
		if trace.FromContext(ctx) != nil {
			t.Error("handler context unexpectedly traced")
		}
		return nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(addr)
	defer cl.Close()
	if _, err := cl.Call("probe", nil); err != nil {
		t.Fatal(err)
	}
}

// TestServerLocalSampling pins that a server with its own Tracer samples
// untraced requests and aggregates dispatch spans.
func TestServerLocalSampling(t *testing.T) {
	srv := NewServer()
	srv.Tracer = trace.NewTracer(trace.Config{SampleEvery: 1})
	srv.Handle("noop", func(_ context.Context, p, _ []byte) ([]byte, error) { return nil, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(addr)
	defer cl.Close()
	if _, err := cl.Call("noop", nil); err != nil {
		t.Fatal(err)
	}
	st := srv.Tracer.Stats()
	if st.Traces != 1 {
		t.Fatalf("server tracer saw %d traces, want 1", st.Traces)
	}
	for _, s := range st.Stages {
		if s.Stage == trace.StageServerDispatch && s.Snapshot.Count != 1 {
			t.Fatalf("dispatch histogram count %d, want 1", s.Snapshot.Count)
		}
	}
}
