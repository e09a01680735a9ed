package discovery

import (
	"context"
	"fmt"
	"time"

	"ips/internal/codec"
	"ips/internal/rpc"
)

// Catalog is the read side of service discovery — what clients and
// watchers need. Both the in-process Registry and the RemoteRegistry
// (registry daemon over RPC) satisfy it, so a unified client works the
// same in a single process and across processes.
type Catalog interface {
	Lookup(service string) []Instance
}

// Registrar is the write side: what instances use to announce themselves.
type Registrar interface {
	Register(inst Instance)
	Deregister(service, addr string)
}

var (
	_ Catalog   = (*Registry)(nil)
	_ Registrar = (*Registry)(nil)
	_ Catalog   = (*RemoteRegistry)(nil)
	_ Registrar = (*RemoteRegistry)(nil)
)

// RPC method names of the registry protocol.
const (
	methodRegister   = "disc.register"
	methodDeregister = "disc.deregister"
	methodLookup     = "disc.lookup"
)

// Instance wire encoding.
const (
	fInstService = 1
	fInstAddr    = 2
	fInstRegion  = 3
	fInstState   = 4
)

func encodeInstance(e *codec.Buffer, in Instance) {
	e.String(fInstService, in.Service)
	e.String(fInstAddr, in.Addr)
	e.String(fInstRegion, in.Region)
	if in.State != StateActive {
		e.String(fInstState, in.State)
	}
}

func decodeInstance(r *codec.Reader) (Instance, error) {
	var in Instance
	for !r.Done() {
		f, wt, err := r.Next()
		if err != nil {
			return in, err
		}
		switch f {
		case fInstService:
			in.Service, err = r.String()
		case fInstAddr:
			in.Addr, err = r.String()
		case fInstRegion:
			in.Region, err = r.String()
		case fInstState:
			in.State, err = r.String()
		default:
			err = r.Skip(wt)
		}
		if err != nil {
			return in, err
		}
	}
	return in, nil
}

// Server exposes a Registry over the RPC framework so IPS instances and
// clients in separate processes share one catalog — the role Consul plays
// in the paper's deployment (§III).
type Server struct {
	reg *Registry
	srv *rpc.Server
}

// NewServer wraps reg.
func NewServer(reg *Registry) *Server {
	s := &Server{reg: reg, srv: rpc.NewServer()}
	s.register()
	return s
}

// Listen binds the registry service and returns the bound address.
func (s *Server) Listen(addr string) (string, error) { return s.srv.Listen(addr) }

// Close stops serving.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) register() {
	s.srv.Handle(methodRegister, func(_ context.Context, payload, _ []byte) ([]byte, error) {
		in, err := decodeInstance(codec.NewReader(payload))
		if err != nil {
			return nil, err
		}
		s.reg.Register(in)
		return nil, nil
	})
	s.srv.Handle(methodDeregister, func(_ context.Context, payload, _ []byte) ([]byte, error) {
		in, err := decodeInstance(codec.NewReader(payload))
		if err != nil {
			return nil, err
		}
		s.reg.Deregister(in.Service, in.Addr)
		return nil, nil
	})
	s.srv.Handle(methodLookup, func(_ context.Context, payload, _ []byte) ([]byte, error) {
		r := codec.NewReader(payload)
		service := ""
		for !r.Done() {
			f, wt, err := r.Next()
			if err != nil {
				return nil, err
			}
			if f == 1 {
				if service, err = r.String(); err != nil {
					return nil, err
				}
			} else if err := r.Skip(wt); err != nil {
				return nil, err
			}
		}
		var e codec.Buffer
		for _, in := range s.reg.Lookup(service) {
			e.Message(1, func(b *codec.Buffer) { encodeInstance(b, in) })
		}
		return append([]byte(nil), e.Bytes()...), nil
	})
}

// RemoteRegistry is the client to a registry daemon. Lookups and
// registrations travel over RPC; registration TTLs are enforced by the
// daemon, so callers heartbeat exactly as they do against an in-process
// Registry (StartHeartbeat accepts any Registrar).
type RemoteRegistry struct {
	c *rpc.Client
}

// Dial connects to a registry daemon at addr.
func Dial(addr string) *RemoteRegistry {
	c := rpc.NewClient(addr)
	c.CallTimeout = 2 * time.Second
	return &RemoteRegistry{c: c}
}

// Register implements Registrar; failures are dropped (the next heartbeat
// retries), matching best-effort registration semantics.
func (r *RemoteRegistry) Register(inst Instance) {
	var e codec.Buffer
	encodeInstance(&e, inst)
	_, _ = r.c.Call(methodRegister, append([]byte(nil), e.Bytes()...))
}

// Deregister implements Registrar.
func (r *RemoteRegistry) Deregister(service, addr string) {
	var e codec.Buffer
	encodeInstance(&e, Instance{Service: service, Addr: addr})
	_, _ = r.c.Call(methodDeregister, append([]byte(nil), e.Bytes()...))
}

// Lookup implements Catalog; an unreachable daemon yields an empty list
// (the caller's watcher keeps its last snapshot).
func (r *RemoteRegistry) Lookup(service string) []Instance {
	var e codec.Buffer
	e.String(1, service)
	raw, err := r.c.Call(methodLookup, append([]byte(nil), e.Bytes()...))
	if err != nil {
		return nil
	}
	rd := codec.NewReader(raw)
	var out []Instance
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return out
		}
		if f != 1 {
			if rd.Skip(wt) != nil {
				return out
			}
			continue
		}
		var sub codec.Reader
		if rd.Sub(&sub) != nil {
			return out
		}
		in, err := decodeInstance(&sub)
		if err != nil {
			return out
		}
		out = append(out, in)
	}
	return out
}

// Close releases the connection.
func (r *RemoteRegistry) Close() error { return r.c.Close() }

// String identifies the remote endpoint.
func (r *RemoteRegistry) String() string {
	return fmt.Sprintf("discovery.RemoteRegistry(%s)", r.c.Addr())
}
