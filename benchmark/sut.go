package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ips/internal/client"
	"ips/internal/config"
	"ips/internal/discovery"
	"ips/internal/gcache"
	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/server"
	"ips/internal/wal"
)

// The system under test, identical for every workload.
const (
	tableName  = "user_profile"
	callerName = "bench"
	memLimit   = 64 << 20
	warmLimit  = 8 << 20
)

var (
	actions   = []string{"like", "comment", "share"}
	cacheOpts = gcache.Options{MemLimit: memLimit, WarmLimit: warmLimit, HotSlots: 4}
)

// deployment is one real IPS deployment in this process: unified client →
// loopback TCP → service → instance over a disk store and a journal.
type deployment struct {
	dir     string
	store   *timedStore
	journal *wal.Journal
	inst    *server.Instance
	svc     *server.Service
	addr    string
	client  *client.Client
}

// deploy opens (or reopens, replaying what is there) the store and journal
// under dir and starts an instance and a service on them. The client is
// created only when serve is set; the crash check reopens without one.
func deploy(dir string, rec *recorder, serve bool) (*deployment, error) {
	disk, err := kv.OpenDisk(filepath.Join(dir, "kv.log"))
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir, store: &timedStore{Store: disk, disk: disk, rec: rec}}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	if d.journal, err = wal.Open(filepath.Join(dir, "wal.log"), wal.Options{}); err != nil {
		return nil, err
	}
	cfgs, err := config.NewStore(config.Default())
	if err != nil {
		return nil, err
	}
	d.inst, err = server.New(server.Options{
		Name: "ips-bench-0", Region: "local",
		Store: d.store, Config: cfgs, Cache: cacheOpts, Journal: d.journal,
	})
	if err != nil {
		return nil, err
	}
	if err := d.inst.CreateTable(tableName, model.NewSchema(actions...)); err != nil {
		return nil, err
	}
	if serve {
		d.svc = server.NewService(d.inst)
		if d.addr, err = d.svc.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		reg := discovery.NewRegistry(time.Minute)
		reg.Register(discovery.Instance{Service: "ips", Addr: d.addr, Region: "local"})
		d.client, err = client.New(client.Options{
			Caller: callerName, Service: "ips", Region: "local", Registry: reg,
		})
		if err != nil {
			return nil, err
		}
	}
	ok = true
	return d, nil
}

// close tears the deployment down in dependency order. Errors are
// dropped: by now every measurement and check has been taken.
func (d *deployment) close() {
	if d.client != nil {
		_ = d.client.Close()
	}
	if d.svc != nil {
		_ = d.svc.Close()
	}
	if d.inst != nil {
		_ = d.inst.Close()
	}
	if d.journal != nil {
		_ = d.journal.Close()
	}
	_ = d.store.Close()
}

// crash stops the deployment the way a killed process would: nothing is
// merged or flushed, and file handles close without a sync.
func (d *deployment) crash() {
	_ = d.client.Close()
	_ = d.svc.Close()
	d.inst.Abort()
	d.journal.Abort()
	_ = d.store.Close()
}

// logBytes is the size of the store's append-only log on disk.
func (d *deployment) logBytes() int64 {
	st, err := os.Stat(filepath.Join(d.dir, "kv.log"))
	if err != nil {
		return 0
	}
	return st.Size()
}

// kvOp indexes timedStore's per-operation counters.
type kvOp int

const (
	kvGet kvOp = iota
	kvSet
	kvXGet
	kvXSet
	kvDelete
	numKVOps
)

var kvOpNames = [numKVOps]string{"kv.get", "kv.set", "kv.xget", "kv.xset", "kv.delete"}

// timedStore is the benchmark's view of the kv layer from outside: it
// counts calls and bytes per operation, and while a traced run's recorder
// is on it also times each call and records it as a span.
type timedStore struct {
	kv.Store
	disk *kv.Disk
	rec  *recorder

	calls, bytes [numKVOps]atomic.Int64
}

// start reads the clock only while the traced run's recorder is on.
func (s *timedStore) start() (t time.Time) {
	if s.rec != nil && s.rec.on.Load() {
		t = time.Now()
	}
	return t
}

// done accounts one finished store call of n bytes. Reads belong to the
// request in flight (the traced run has one caller, and a miss loads
// synchronously inside it); writes come from flush and eviction threads
// and are recorded as background spans.
func (s *timedStore) done(op kvOp, n int, start time.Time) {
	s.calls[op].Add(1)
	s.bytes[op].Add(int64(n))
	if !start.IsZero() {
		s.rec.storeSpan(kvOpNames[op], op == kvGet || op == kvXGet, start, time.Now())
	}
}

func (s *timedStore) Get(key string) ([]byte, error) {
	t := s.start()
	v, err := s.Store.Get(key)
	s.done(kvGet, len(v), t)
	return v, err
}

func (s *timedStore) Set(key string, value []byte) error {
	t := s.start()
	err := s.Store.Set(key, value)
	s.done(kvSet, len(key)+len(value), t)
	return err
}

func (s *timedStore) XGet(key string) ([]byte, kv.Version, error) {
	t := s.start()
	v, ver, err := s.Store.XGet(key)
	s.done(kvXGet, len(v), t)
	return v, ver, err
}

func (s *timedStore) XSet(key string, value []byte, expected kv.Version) (kv.Version, error) {
	t := s.start()
	ver, err := s.Store.XSet(key, value, expected)
	s.done(kvXSet, len(key)+len(value), t)
	return ver, err
}

func (s *timedStore) Delete(key string) error {
	t := s.start()
	err := s.Store.Delete(key)
	s.done(kvDelete, len(key), t)
	return err
}

// kvCounts is a reading of the store wrapper's counters.
type kvCounts struct {
	gets, sets, writeBytes int64
}

func (s *timedStore) counts() kvCounts {
	return kvCounts{
		gets:       s.calls[kvGet].Load() + s.calls[kvXGet].Load(),
		sets:       s.calls[kvSet].Load() + s.calls[kvXSet].Load(),
		writeBytes: s.bytes[kvSet].Load() + s.bytes[kvXSet].Load() + s.bytes[kvDelete].Load(),
	}
}

// dataRoot is where deployments keep their files: inside the working
// directory, so a run touches nothing outside its checkout.
const dataRoot = ".bench_build/data"

// newDataDir makes a fresh directory for one deployment.
func newDataDir() (string, error) {
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dataRoot, fmt.Sprintf("run-%d-", os.Getpid()))
}
