package server

import (
	"context"
	"errors"
	"sync"

	"ips/internal/config"
	"ips/internal/query"
	"ips/internal/rpc"
	"ips/internal/sub"
	"ips/internal/wire"
)

// Service exposes an Instance over the RPC framework, registering one
// handler per API method (§II-B).
type Service struct {
	in  *Instance
	srv *rpc.Server
	// interner dedupes the request string vocabulary (callers, tables,
	// actions, UDAF names) so steady-state decodes return resident
	// strings without copying.
	interner wire.Interner
}

// queryScratch bundles every reusable piece of the fast read path: the
// decoded request, the engine's working storage, and the response the
// engine fills. One pooled struct serves one request at a time; the
// response's feature vectors alias the scratch columns, which is safe
// because the handler encodes them into the connection's response
// buffer before the struct goes back to the pool.
type queryScratch struct {
	req  wire.QueryRequest
	sc   query.Scratch
	resp wire.QueryResponse
}

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// fastQuery is the steady-state read handler: decode into pooled
// request storage, execute through pooled engine scratch, append the
// encoded response into the connection's reusable buffer. The pooled
// struct recycles as the handler returns — safe because the encode has
// already copied every feature out of the scratch columns into dst.
//
//ips:hotpath-trust the pool round-trip and deferred put are the pooled-scratch contract; every stage inside is individually hot-checked
func (s *Service) fastQuery(ctx context.Context, payload, dst []byte) ([]byte, error) {
	qs := queryScratchPool.Get().(*queryScratch)
	defer queryScratchPool.Put(qs)
	if err := wire.DecodeQueryInto(payload, &qs.req, &s.interner); err != nil {
		return dst, err
	}
	if err := s.in.QueryInto(ctx, &qs.req, &qs.resp, &qs.sc); err != nil {
		return dst, err
	}
	return wire.AppendQueryResponse(dst, &qs.resp), nil
}

// NewService wraps in and registers its handlers on a fresh RPC server.
// The instance's tracer (if any) becomes the RPC server's, so untraced
// requests can still be sampled server-side.
func NewService(in *Instance) *Service {
	s := &Service{in: in, srv: rpc.NewServer()}
	s.srv.Tracer = in.Tracer()
	s.register()
	return s
}

// RPC returns the underlying RPC server, e.g. for fault injection hooks.
func (s *Service) RPC() *rpc.Server { return s.srv }

// Listen binds the service to addr (":0" for ephemeral) and returns the
// bound address.
func (s *Service) Listen(addr string) (string, error) { return s.srv.Listen(addr) }

// Close stops the RPC server (the Instance is closed separately).
func (s *Service) Close() error { return s.srv.Close() }

// errSubTorn reports a server-side subscription teardown (sink write
// failure or instance shutdown) to the client's stream as a close error,
// distinguishing it from a clean client-initiated close.
var errSubTorn = errors.New("server: subscription torn down")

// streamSink adapts one RPC server stream to the hub's Sink. Push runs
// on the subscriber's pump goroutine only, so the encode buffer is
// reused without locking; ServerStream.Send copies the payload into the
// connection's write buffer before returning.
type streamSink struct {
	st  *rpc.ServerStream
	buf []byte
}

func (ss *streamSink) Push(u *wire.SubUpdate) error {
	ss.buf = wire.AppendSubUpdate(ss.buf[:0], u)
	return ss.st.Send(ss.buf)
}

// watch is the ips.sub.watch stream handler: one standing query per
// stream, updates pushed as kindStreamData frames carrying SubUpdate.
func (s *Service) watch(ctx context.Context, payload []byte, st *rpc.ServerStream) error {
	req, err := wire.DecodeSubscribe(payload)
	if err != nil {
		return err
	}
	q, err := sub.Parse(req.Pipeline)
	if err != nil {
		return err
	}
	sb, err := s.in.Hub().Subscribe(q, &streamSink{st: st})
	if err != nil {
		return err
	}
	defer s.in.Hub().Unsubscribe(sb)
	select {
	case <-ctx.Done():
		// Client closed the stream (or the connection died): a clean end.
		return ctx.Err()
	case <-sb.Done():
		return errSubTorn
	}
}

func (s *Service) register() {
	s.srv.HandleFast(wire.MethodPing, func(_ context.Context, _, dst []byte) ([]byte, error) {
		return append(dst, "pong"...), nil
	})
	addHandler := func(ctx context.Context, payload, _ []byte) ([]byte, error) {
		req, err := wire.DecodeAdd(payload)
		if err != nil {
			return nil, err
		}
		if err := s.in.AddCtx(ctx, req.Caller, req.Table, req.ProfileID, req.Entries); err != nil {
			return nil, err
		}
		return nil, nil
	}
	s.srv.Handle(wire.MethodAdd, addHandler)
	s.srv.Handle(wire.MethodAddBatch, addHandler)

	// The query handler is the paper's steady-state read path, so it is
	// registered to run inline (HandleFast): decode, compute, and encode all run
	// through pooled scratch storage with the response appended into the
	// connection's reusable buffer — a warmed cache-hit read is
	// allocation-free end to end (see TestServedQueryAllocFree).
	s.srv.HandleFast(wire.MethodTopK, s.fastQuery)
	s.srv.HandleFast(wire.MethodFilter, s.fastQuery)
	s.srv.HandleFast(wire.MethodDecay, s.fastQuery)

	// The batch read answers with a shared-structure response: each
	// distinct response body is encoded once and duplicate slots carry
	// references (DESIGN.md "Batch v2"). The client no longer sends it —
	// a client batch is N single reads — but the benchmark's traced run
	// times this method and Instance.QueryBatchCtx by name, so it stays
	// until the benchmark stops calling it.
	s.srv.Handle(wire.MethodQueryBatchV2, func(ctx context.Context, payload, _ []byte) ([]byte, error) {
		req, err := wire.DecodeQueryBatch(payload)
		if err != nil {
			return nil, err
		}
		resp := &wire.BatchQueryResponse{Results: s.in.QueryBatchCtx(ctx, req.Caller, req.Subs)}
		return wire.EncodeQueryBatchResponseV2(resp), nil
	})

	s.srv.Handle(wire.MethodStats, func(_ context.Context, p, _ []byte) ([]byte, error) {
		return wire.EncodeStats(s.in.Stats()), nil
	})

	// Management operations.
	s.srv.Handle(wire.MethodDeleteProfile, func(_ context.Context, p, _ []byte) ([]byte, error) {
		req, err := wire.DecodeDeleteProfile(p)
		if err != nil {
			return nil, err
		}
		return nil, s.in.DeleteProfile(req.Table, req.ProfileID)
	})
	s.srv.Handle(wire.MethodSetQuota, func(_ context.Context, p, _ []byte) ([]byte, error) {
		req, err := wire.DecodeSetQuota(p)
		if err != nil {
			return nil, err
		}
		s.in.Limiter().SetQuota(req.Caller, req.QPS)
		return nil, nil
	})
	s.srv.Handle(wire.MethodSetIsolation, func(_ context.Context, p, _ []byte) ([]byte, error) {
		req, err := wire.DecodeSetIsolation(p)
		if err != nil {
			return nil, err
		}
		return nil, s.in.Config().Mutate(func(c *config.Config) {
			c.WriteIsolation = req.Enabled
		})
	})
	s.srv.Handle(wire.MethodRegisterUDAF, func(_ context.Context, p, _ []byte) ([]byte, error) {
		req, err := wire.DecodeRegisterUDAF(p)
		if err != nil {
			return nil, err
		}
		return nil, s.in.UDAFs().Register(req.Name, query.WeightedSum(req.Weights...))
	})
	// Elastic resharding: snapshot on the old owner, install on the new.
	s.srv.Handle(wire.MethodMigrateSnapshot, func(ctx context.Context, p, _ []byte) ([]byte, error) {
		req, err := wire.DecodeMigrateRequest(p)
		if err != nil {
			return nil, err
		}
		resp, err := s.in.MigrateSnapshot(ctx, req)
		if err != nil {
			return nil, err
		}
		return wire.EncodeMigrateFrames(resp), nil
	})
	s.srv.Handle(wire.MethodMigrateInstall, func(ctx context.Context, p, _ []byte) ([]byte, error) {
		req, err := wire.DecodeMigrateInstall(p)
		if err != nil {
			return nil, err
		}
		resp, err := s.in.MigrateInstall(ctx, req)
		if err != nil {
			return nil, err
		}
		return wire.EncodeMigrateInstalled(resp), nil
	})

	// Continuous queries: a long-lived stream per subscription. The
	// handler parses the pipeline, registers it on the hub, and stays
	// parked until the client closes the stream (or the subscriber is
	// torn down server-side); the hub's pump goroutine does the pushing.
	s.srv.HandleStream(wire.MethodSubWatch, s.watch)

	s.srv.Handle(wire.MethodListTables, func(_ context.Context, p, _ []byte) ([]byte, error) {
		return wire.EncodeStringList(&wire.StringList{Names: s.in.Tables()}), nil
	})
	s.srv.Handle(wire.MethodListUDAFs, func(_ context.Context, p, _ []byte) ([]byte, error) {
		return wire.EncodeStringList(&wire.StringList{Names: s.in.UDAFs().Names()}), nil
	})
}
