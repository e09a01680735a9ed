package ips

import (
	"context"
	"time"

	"ips/internal/client"
	"ips/internal/discovery"
	"ips/internal/model"
	"ips/internal/wire"
)

// ErrPartial marks a fan-out operation that returned some results but not
// all (test with errors.Is); the concrete error is a *client.PartialError
// listing the failed units.
var ErrPartial = client.ErrPartial

// BatchOp selects the read semantics of one batch item.
type BatchOp = wire.BatchOp

// Batch operations, mirroring TopK / Filter / DecayQuery.
const (
	OpTopK   = wire.OpTopK
	OpFilter = wire.OpFilter
	OpDecay  = wire.OpDecay
)

// BatchItem is one element of a QueryBatch: which profile to read and how.
type BatchItem struct {
	Table string
	ID    model.ProfileID
	Op    BatchOp
	Query Query
}

// Remote is the unified IPS client to a distributed deployment: it
// discovers instances, routes profile IDs with consistent hashing, writes
// to every region and reads from the local region with failover (§III-G).
type Remote struct {
	c *client.Client
}

// RemoteOptions configures a Remote.
type RemoteOptions struct {
	// Caller identifies the upstream application for quota accounting.
	Caller string
	// Region is the caller's local region; reads prefer it.
	Region string
	// Registry is the discovery catalog: the in-process Registry shared
	// with an embedded cluster, or discovery.Dial(addr) for a registry
	// daemon.
	Registry discovery.Catalog
	// Service is the discovery service name; default "ips".
	Service string
	// CallTimeout bounds each RPC; default 1s.
	CallTimeout time.Duration
}

// Connect builds a Remote client.
func Connect(opts RemoteOptions) (*Remote, error) {
	c, err := client.New(client.Options{
		Caller:      opts.Caller,
		Service:     opts.Service,
		Region:      opts.Region,
		Registry:    opts.Registry,
		CallTimeout: opts.CallTimeout,
	})
	if err != nil {
		return nil, err
	}
	return &Remote{c: c}, nil
}

// Add appends observations to a profile in every region.
func (r *Remote) Add(table string, id model.ProfileID, entries ...Entry) error {
	return r.c.Add(table, id, entries...)
}

// TopK queries the top-K features.
func (r *Remote) TopK(table string, id model.ProfileID, q Query) ([]Feature, error) {
	resp, err := r.c.TopK(q.toWire(table, id))
	if err != nil {
		return nil, err
	}
	return resp.Features, nil
}

// Filter queries with filtering semantics.
func (r *Remote) Filter(table string, id model.ProfileID, q Query) ([]Feature, error) {
	resp, err := r.c.Filter(q.toWire(table, id))
	if err != nil {
		return nil, err
	}
	return resp.Features, nil
}

// DecayQuery queries with the configured decay applied.
func (r *Remote) DecayQuery(table string, id model.ProfileID, q Query) ([]Feature, error) {
	resp, err := r.c.Decay(q.toWire(table, id))
	if err != nil {
		return nil, err
	}
	return resp.Features, nil
}

// QueryBatch executes many profile reads at once: each item is a read of
// its own, routed to its owning instance, and all of them are sent before
// any is awaited — one write per connection — so a ranking request for
// hundreds of candidates waits about one round trip, not one per
// candidate (§II, §IV). Results come back in item order. On partial failure the successful slots are still
// returned, failed slots are nil, and the error satisfies
// errors.Is(err, ErrPartial) and lists the failed indices.
func (r *Remote) QueryBatch(items []BatchItem) ([][]Feature, error) {
	subs := make([]wire.SubQuery, len(items))
	for i, it := range items {
		subs[i] = wire.SubQuery{Op: it.Op, Query: *it.Query.toWire(it.Table, it.ID)}
	}
	resps, err := r.c.QueryBatch(subs)
	out := make([][]Feature, len(items))
	for i, resp := range resps {
		if resp != nil {
			out[i] = resp.Features
		}
	}
	return out, err
}

// Subscription is a standing query's client handle: updates arrive on
// Recv / Updates until Close. See Watch.
type Subscription = client.Subscription

// SubUpdate is one pushed standing-query update: the profile it is for,
// a per-profile sequence number, the Resync flag ("replace everything
// you hold for this profile"), and the full current answer.
type SubUpdate = wire.SubUpdate

// Watch registers a standing query written in the pipeline language
// (DESIGN.md "Continuous queries"), e.g.
//
//	source(user_profile, 42, 99) | slot(1) | decay(exp, 0.5) | topk(10)
//
// and returns a Subscription whose Recv yields a fresh answer whenever
// ingest changes a watched profile. The subscription shards its IDs
// across owning instances and transparently resubscribes through
// reconnects and migration windows; after any resubscribe the first
// update per profile carries Resync=true and replaces prior state.
func (r *Remote) Watch(ctx context.Context, pipeline string) (*Subscription, error) {
	return r.c.Subscribe(ctx, pipeline)
}

// Stats fetches statistics from every live instance.
func (r *Remote) Stats() ([]*wire.StatsResponse, error) { return r.c.Stats() }

// ErrorRate reports the client-observed error fraction.
func (r *Remote) ErrorRate() float64 { return r.c.ErrorRate() }

// Client exposes the underlying client for advanced use.
func (r *Remote) Client() *client.Client { return r.c }

// Close shuts the client down.
func (r *Remote) Close() error { return r.c.Close() }
