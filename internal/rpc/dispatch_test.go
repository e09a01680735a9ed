package rpc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ips/internal/trace"
)

// TestDispatchPathsAgree registers one handler inline (HandleFast) and on
// goroutines (Handle) and runs both through the same cases: the one
// dispatch body must answer each with the same response bytes, error text
// and span shape, whichever side of the read loop it ran on.
func TestDispatchPathsAgree(t *testing.T) {
	const delay = 20 * time.Millisecond
	handler := func(ctx context.Context, p, dst []byte) ([]byte, error) {
		trace.StartLeaf(ctx, trace.StageCacheGet).End()
		switch string(p) {
		case "error":
			return dst, errors.New("boom")
		case "panic":
			panic("kaboom")
		}
		return append(dst, p...), nil
	}
	type outcome struct{ resp, err, spans string }
	cases := []struct {
		name, method, payload string
		drop, delay           bool
		traced                bool // the caller samples the call
		sampled               bool // the server samples every call
		want                  outcome
	}{
		{name: "echo", method: "m", payload: "hello", want: outcome{resp: "hello"}},
		{name: "error", method: "m", payload: "error", want: outcome{err: "rpc: remote m: boom"}},
		{name: "panic", method: "m", payload: "panic", want: outcome{err: "rpc: remote m: rpc: handler panic: kaboom"}},
		{name: "unknown method", method: "nope", payload: "hello", want: outcome{err: "rpc: remote nope: rpc: unknown method: nope"}},
		{name: "drop", method: "m", payload: "hello", drop: true, want: outcome{err: ErrTimeout.Error()}},
		{name: "delay", method: "m", payload: "hello", delay: true, want: outcome{resp: "hello"}},
		{name: "traced", method: "m", payload: "hello", traced: true, want: outcome{resp: "hello",
			spans: "rpc.dial<root rpc.roundtrip<root server.dispatch<rpc.roundtrip cache.get<server.dispatch"}},
		{name: "sampled", method: "m", payload: "hello", sampled: true, want: outcome{resp: "hello",
			spans: "server.dispatch<root cache.get<server.dispatch"}},
	}
	run := func(t *testing.T, register func(*Server, string, Handler), tc int) outcome {
		t.Helper()
		c := cases[tc]
		s := NewServer()
		register(s, "m", handler)
		if c.sampled {
			s.Tracer = trace.NewTracer(trace.Config{SampleEvery: 1})
		}
		if c.drop {
			s.SetDropRate(func() float64 { return 1 })
		}
		if c.delay {
			s.SetDelay(func(string) time.Duration { return delay })
		}
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		cl := NewClient(addr)
		defer cl.Close()
		if c.drop {
			cl.CallTimeout = 50 * time.Millisecond
		}
		ctx := context.Background()
		var tr *trace.Trace
		if c.traced {
			tr = trace.New()
			ctx = trace.NewContext(ctx, tr)
		}
		start := time.Now()
		resp, err := cl.CallCtx(ctx, c.method, []byte(c.payload))
		if c.delay && time.Since(start) < delay {
			t.Errorf("call returned in %v, under the injected %v delay", time.Since(start), delay)
		}
		o := outcome{resp: string(resp)}
		if err != nil {
			o.err = err.Error()
		}
		if c.sampled {
			tr = s.Tracer.LastSampled()
		}
		if tr != nil {
			o.spans = spanShape(tr.Spans())
		}
		return o
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inline := run(t, (*Server).HandleFast, i)
			goroutine := run(t, (*Server).Handle, i)
			if inline != goroutine {
				t.Fatalf("inline registration %+v, goroutine registration %+v", inline, goroutine)
			}
			if inline != c.want {
				t.Fatalf("both registrations %+v, want %+v", inline, c.want)
			}
		})
	}
}

// spanShape renders spans as "stage<parent stage" in recording order,
// dropping IDs and timings.
func spanShape(spans []trace.Span) string {
	stages := map[uint64]string{0: "root"}
	var out []string
	for _, sp := range spans {
		stages[sp.ID] = sp.Stage.String()
		out = append(out, fmt.Sprintf("%s<%s", sp.Stage, stages[sp.Parent]))
	}
	return strings.Join(out, " ")
}
