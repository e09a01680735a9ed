// Elastic resharding coordinator (DESIGN.md "Elastic resharding"): Join
// boots a node into a region and migrates its share of every table to it
// live; Drain migrates a node's share out and retires it from routing.
// Both run against a serving cluster — clients keep reading and writing
// throughout, protected by the dual-read/dual-write window their two
// rings open while a member is joining or draining.
//
// The handoff itself is the ips.migrate RPC pair. Content flows in
// passes: each pass snapshots the moving profiles on their current owner
// (draining every dirty one through the WAL-backed flush path first) and
// installs the frames on the new owner, fenced by the source's journal
// watermarks so repeats are idempotent. A profile is re-shipped until two
// consecutive snapshots find its source watermark unchanged — at that
// point every write the source accepted before the later snapshot is on
// the destination, and every later write reaches the destination
// directly through the client's dual-write; the profile is settled and
// never installed again. Passes loop until every moving profile has
// settled. Only then does the membership flip, and a final release pass
// drops the moved profiles from the source and raises the destination's
// migration watermarks (mark-only, so writes taken after cutover are
// never clobbered).
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ips/internal/discovery"
	"ips/internal/hashring"
	"ips/internal/model"
	"ips/internal/rpc"
	"ips/internal/wire"
)

// maxMigratePasses bounds the content phase. A pass re-ships only the
// profiles written since the previous pass sampled them, each pass is
// therefore shorter than the one before, and a profile leaves the loop
// the first time it goes one pass without a write — so any workload
// whose per-profile write interval exceeds one (shrinking) snapshot
// round trip converges in a handful of passes however many profiles
// move and however high the aggregate write rate is. The cap turns a
// single profile written faster than that into an error instead of a
// hang.
const maxMigratePasses = 50

// migrateCallTimeout bounds one snapshot or install RPC — these carry
// whole profile sets, so they get more room than a point query.
const migrateCallTimeout = 10 * time.Second

// Move records one profile handed off during a Join or Drain.
type Move struct {
	Table string
	ID    model.ProfileID
	// From and To are instance addresses (the ring's member keys).
	From, To string
	// Watermark is the source journal watermark the release pass shipped:
	// every write the source ever acknowledged for this profile is at or
	// below it. After cutover the new owner's responses report a
	// freshness watermark >= this value — the migration-storm suite's
	// post-cutover freshness assertion.
	Watermark uint64
}

// MigrationReport summarizes one Join or Drain for harness assertions.
type MigrationReport struct {
	// Node is the joined or drained node's name.
	Node string
	// Moves lists every profile the release pass handed off.
	Moves []Move
	// Passes is how many content passes ran before one came back quiet.
	Passes int
	// Installed and Marked count content frames landed and release marks
	// applied across all passes.
	Installed int64
	Marked    int64
}

// errNeedJournal gates resharding on durable watermarks: without a
// journal every exported frame carries watermark zero and installs
// cannot tell fresh content from stale.
var errNeedJournal = errors.New("cluster: elastic resharding requires Options.JournalDir (journal watermarks fence migration installs)")

// Join boots a fresh node into region and live-migrates its ring share
// onto it: register joining (clients open the dual window), content
// passes until quiet, flip active (cutover), then the release pass. The
// returned report carries the per-profile release watermarks.
func (c *Cluster) Join(region string) (*Node, *MigrationReport, error) {
	if c.opts.JournalDir == "" {
		return nil, nil, errNeedJournal
	}
	if !c.hasRegion(region) {
		return nil, nil, fmt.Errorf("cluster: unknown region %q", region)
	}
	n, err := c.startNode(c.nextName(region), region, discovery.StateJoining)
	if err != nil {
		return nil, nil, err
	}
	// Window open: wait until every client has seen the joining member
	// and dual-writes, so no write can land only on the old owners after
	// a content pass has sampled them.
	c.settle()

	sources := c.peersOf(n)
	oldR, authR := migrationRings(addrsOf(sources), n.Addr, true)
	rep := &MigrationReport{Node: n.Name}
	if err := c.runContentPasses(rep, sources, oldR, authR); err != nil {
		return n, rep, err
	}

	// Cutover: the joiner becomes a settled member. After the settle the
	// window is closed — no client dual-reads these keys anymore — so the
	// release pass below can drop the old copies.
	n.SetState(discovery.StateActive)
	c.settle()
	if err := c.releasePass(rep, sources, oldR, authR); err != nil {
		return n, rep, err
	}
	return n, rep, nil
}

// Drain live-migrates the named node's ring share onto the remaining
// region members and retires it from routing. The node itself stays up —
// its counters remain observable for conservation accounting — until
// Cluster.Close.
func (c *Cluster) Drain(name string) (*MigrationReport, error) {
	if c.opts.JournalDir == "" {
		return nil, errNeedJournal
	}
	c.mu.Lock()
	n := c.nodes[name]
	c.mu.Unlock()
	if n == nil {
		return nil, fmt.Errorf("cluster: unknown node %q", name)
	}
	if n.down {
		return nil, fmt.Errorf("cluster: node %q is down", name)
	}
	if n.Drained() {
		return nil, fmt.Errorf("cluster: node %q is already drained", name)
	}
	peers := c.peersOf(n)
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: cannot drain %q, last node in region %q", name, n.Region)
	}

	// Window open: the drainer leaves the authority ring but stays in the
	// old ring, so clients dual-write its keys to their next owners while
	// the content passes run.
	n.SetState(discovery.StateDraining)
	c.settle()

	oldR, authR := migrationRings(addrsOf(peers), n.Addr, false)
	sources := []*Node{n}
	rep := &MigrationReport{Node: name}
	if err := c.runContentPasses(rep, sources, oldR, authR); err != nil {
		return rep, err
	}

	// Cutover: deregister. Once the settle elapses no client routes to
	// the drained node at all and the release pass can drop its copies.
	n.hb.Stop()
	c.settle()
	if err := c.releasePass(rep, sources, oldR, authR); err != nil {
		return rep, err
	}
	c.mu.Lock()
	n.drained = true
	c.mu.Unlock()
	return rep, nil
}

// moveKey names one moving profile across passes.
type moveKey struct {
	table string
	id    model.ProfileID
}

// handoff is the coordinator's memory of one moving profile across
// content passes.
type handoff struct {
	// wal and mig are the source watermarks of the last frame sent. Both:
	// a profile that itself migrated onto the source can carry a MigLSN
	// above every LSN of the source's own journal, and only WalLSN moves
	// with each write.
	wal, mig uint64
	// settled takes the profile out of the loop for good: installing it
	// again could only clobber a dual write racing the install.
	settled bool
}

// runContentPasses ships snapshot/install rounds until every moving
// profile has settled, i.e. a pass ships nothing.
//
// A profile settles when two consecutive snapshots, taken at t1 < t2 with
// the first one's install in between, carry the same source watermarks.
// Every acknowledged write bumps the profile's WalLSN and dual writes
// land on the old owner first, so the source acknowledged nothing for the
// profile in (t1, t2]: a dual write the install clobbered on the destination
// reached the source before t1 and is inside the installed frame, and one
// that reaches the source after t2 reaches the destination after the
// last install there will ever be. Combined with the open dual-write
// window, nothing acknowledged is lost to the handoff. The loop ends
// under any aggregate write rate: it needs each profile to go one pass
// without a write, not all of them during the same pass.
func (c *Cluster) runContentPasses(rep *MigrationReport, sources []*Node, oldR, authR *hashring.Ring) error {
	h := make(map[moveKey]handoff)
	for {
		rep.Passes++
		if rep.Passes > maxMigratePasses {
			return fmt.Errorf("cluster: migration did not converge after %d passes", maxMigratePasses)
		}
		shipped, installed, marked, err := c.contentPass(h, sources, oldR, authR)
		if err != nil {
			return err
		}
		rep.Installed += installed
		rep.Marked += marked
		if shipped == 0 {
			return nil
		}
	}
}

// contentPass runs one snapshot/install round over every planned move
// that has not settled. It reports how many frames it shipped and how
// many of them the destinations accepted as fresh.
func (c *Cluster) contentPass(h map[moveKey]handoff, sources []*Node, oldR, authR *hashring.Ring) (shipped int, installed, marked int64, err error) {
	for _, src := range sources {
		for table := range c.opts.Tables {
			byDest, err := movesFor(src, table, oldR, authR)
			if err != nil {
				return shipped, installed, marked, err
			}
			for dest, ids := range byDest {
				ids = unsettled(h, table, ids)
				if len(ids) == 0 {
					continue
				}
				frames, err := callMigrateSnapshot(src.Addr, &wire.MigrateRequest{Table: table, IDs: ids})
				if err != nil {
					return shipped, installed, marked, err
				}
				ship := changed(h, table, frames.Frames)
				if len(ship) == 0 {
					continue
				}
				got, err := callMigrateInstall(dest, &wire.MigrateInstallRequest{Table: table, Frames: ship})
				if err != nil {
					return shipped, installed, marked, err
				}
				shipped += len(ship)
				installed += got.Installed
				marked += got.Marked
			}
		}
	}
	return shipped, installed, marked, nil
}

// unsettled filters ids, in place, down to the profiles still in the loop.
func unsettled(h map[moveKey]handoff, table string, ids []model.ProfileID) []model.ProfileID {
	out := ids[:0]
	for _, id := range ids {
		if !h[moveKey{table, id}].settled {
			out = append(out, id)
		}
	}
	return out
}

// changed filters frames, in place, down to those never shipped or whose
// watermarks moved since they were, and records them as shipped; a frame
// whose watermarks held still since the last pass settles its profile.
func changed(h map[moveKey]handoff, table string, frames []wire.MigrateFrame) []wire.MigrateFrame {
	ship := frames[:0]
	for _, fr := range frames {
		k := moveKey{table, fr.ProfileID}
		now := handoff{wal: fr.WalLSN, mig: fr.MigLSN}
		if last, seen := h[k]; seen && last == now {
			now.settled = true
			h[k] = now
			continue
		}
		h[k] = now
		ship = append(ship, fr)
	}
	return ship
}

// releasePass drops every moved profile from its source (flushing it
// through the WAL first, invalidating hot slots) and mark-installs the
// release watermark on the destination. Mark-only: content the
// destination took after cutover must never be replaced by the source's
// final, now-stale copy.
func (c *Cluster) releasePass(rep *MigrationReport, sources []*Node, oldR, authR *hashring.Ring) error {
	for _, src := range sources {
		for table := range c.opts.Tables {
			byDest, err := movesFor(src, table, oldR, authR)
			if err != nil {
				return err
			}
			for dest, ids := range byDest {
				frames, err := callMigrateSnapshot(src.Addr, &wire.MigrateRequest{Table: table, IDs: ids, Release: true})
				if err != nil {
					return err
				}
				// Frames that never saw a journaled write carry watermark
				// zero; there is nothing to mark (and the wire layer
				// rejects dangling zero marks outright).
				markFrames := make([]wire.MigrateFrame, 0, len(frames.Frames))
				for _, fr := range frames.Frames {
					wm := fr.WalLSN
					if fr.MigLSN > wm {
						wm = fr.MigLSN
					}
					rep.Moves = append(rep.Moves, Move{
						Table: table, ID: fr.ProfileID,
						From: src.Addr, To: dest, Watermark: wm,
					})
					if wm > 0 {
						markFrames = append(markFrames, fr)
					}
				}
				if len(markFrames) == 0 {
					continue
				}
				got, err := callMigrateInstall(dest, &wire.MigrateInstallRequest{Table: table, Mark: true, Frames: markFrames})
				if err != nil {
					return err
				}
				rep.Marked += got.Marked
			}
		}
	}
	return nil
}

// movesFor plans one (source, table) handoff: resident profiles whose
// old-ring owner is the source and whose authority-ring owner is
// someone else, grouped by destination address. Stale residents (ids the
// source holds but no longer owns on the old ring) are skipped — they
// are another node's problem, not part of this window.
func movesFor(src *Node, table string, oldR, authR *hashring.Ring) (map[string][]model.ProfileID, error) {
	ids, err := src.inst.ResidentProfiles(table)
	if err != nil {
		return nil, err
	}
	byDest := make(map[string][]model.ProfileID)
	for _, id := range ids {
		if oldR.Get(id) != src.Addr {
			continue
		}
		dest := authR.Get(id)
		if dest == "" || dest == src.Addr {
			continue
		}
		byDest[dest] = append(byDest[dest], id)
	}
	return byDest, nil
}

// migrationRings builds the same two rings every client builds from the
// discovery snapshot — identical hashring parameters, members keyed by
// address — so the planner and the routers agree on ownership exactly.
// joining selects whether pivot (the joiner's or drainer's address) sits
// in the authority ring (join) or the old ring (drain).
func migrationRings(settled []string, pivot string, joining bool) (oldR, authR *hashring.Ring) {
	oldR, authR = hashring.New(0), hashring.New(0)
	with := append(append(make([]string, 0, len(settled)+1), settled...), pivot)
	if joining {
		oldR.SetMembers(settled)
		authR.SetMembers(with)
	} else {
		oldR.SetMembers(with)
		authR.SetMembers(settled)
	}
	return oldR, authR
}

func callMigrateSnapshot(addr string, req *wire.MigrateRequest) (*wire.MigrateFrames, error) {
	raw, err := callMigrate(addr, wire.MethodMigrateSnapshot, wire.EncodeMigrateRequest(req))
	if err != nil {
		return nil, err
	}
	return wire.DecodeMigrateFrames(raw)
}

func callMigrateInstall(addr string, req *wire.MigrateInstallRequest) (*wire.MigrateInstalled, error) {
	raw, err := callMigrate(addr, wire.MethodMigrateInstall, wire.EncodeMigrateInstall(req))
	if err != nil {
		return nil, err
	}
	return wire.DecodeMigrateInstalled(raw)
}

// callMigrate runs one coordinator RPC on a short-lived connection. The
// coordinator is a control-plane caller — a handful of calls per
// migration — so per-call dialing is simpler than pooling and never
// contends with the data path's connections.
func callMigrate(addr, method string, payload []byte) ([]byte, error) {
	cl := rpc.NewClient(addr)
	cl.CallTimeout = migrateCallTimeout
	defer cl.Close()
	return cl.Call(method, payload)
}

// peersOf returns the other live, undrained nodes in n's region, sorted
// by name for deterministic planning.
func (c *Cluster) peersOf(n *Node) []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Node
	for _, p := range c.nodes {
		if p != n && p.Region == n.Region && !p.down && !p.drained {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func addrsOf(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Addr
	}
	return out
}

func (c *Cluster) hasRegion(region string) bool {
	for _, r := range c.opts.Regions {
		if r == region {
			return true
		}
	}
	return false
}

// nextName picks the first unused ips-<region>-<i> node name.
func (c *Cluster) nextName(region string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; ; i++ {
		name := fmt.Sprintf("ips-%s-%d", region, i)
		if _, ok := c.nodes[name]; !ok {
			return name
		}
	}
}

// settle sleeps long enough for a discovery state change to reach every
// client's router (one SettleInterval covers the slowest refresh).
func (c *Cluster) settle() { time.Sleep(c.opts.SettleInterval) }
