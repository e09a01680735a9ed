package ips

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"ips/internal/cluster"
	"ips/internal/config"
	"ips/internal/model"
)

// fixedNow anchors embedded tests at a deterministic epoch.
const fixedNow = int64(1_700_000_000_000)

func openDB(t testing.TB) *DB {
	t.Helper()
	cfg := config.Default()
	cfg.WriteIsolation = false
	db, err := Open(Options{Config: &cfg, Clock: func() int64 { return fixedNow }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestQuickstartFlow(t *testing.T) {
	db := openDB(t)
	tbl, err := db.CreateTable("user_profile", "like", "comment", "share")
	if err != nil {
		t.Fatal(err)
	}
	// The paper's motivating example: Lakers engagement ten days ago,
	// Warriors likes two days ago.
	const day = int64(24 * time.Hour / time.Millisecond)
	const lakers, warriors = 100, 200
	if err := tbl.Add(1,
		Entry{Timestamp: fixedNow - 10*day, Slot: 1, Type: 2, FID: lakers, Counts: []int64{1, 1, 1}},
		Entry{Timestamp: fixedNow - 2*day, Slot: 1, Type: 2, FID: warriors, Counts: []int64{2, 0, 0}},
	); err != nil {
		t.Fatal(err)
	}
	top, err := tbl.TopK(1, Query{Slot: 1, Type: 2, Window: LastDays(11), SortByAction: "like", K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].FID != warriors {
		t.Fatalf("top = %+v, want Warriors", top)
	}
}

func TestWindowHelpers(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("t", "n")
	_ = tbl.Add(1, Entry{Timestamp: fixedNow - 5000, Slot: 1, Type: 1, FID: 9, Counts: []int64{1}})

	if got, _ := tbl.TopK(1, Query{Slot: 1, Type: 1, Window: Last(10 * time.Second)}); len(got) != 1 {
		t.Fatal("Last window missed the write")
	}
	if got, _ := tbl.TopK(1, Query{Slot: 1, Type: 1, Window: Last(time.Second)}); len(got) != 0 {
		t.Fatal("narrow Last window should miss")
	}
	if got, _ := tbl.TopK(1, Query{Slot: 1, Type: 1, Window: SinceLastAction(time.Second)}); len(got) != 1 {
		t.Fatal("relative window should find the last action")
	}
	from := time.UnixMilli(fixedNow - 10_000)
	to := time.UnixMilli(fixedNow)
	if got, _ := tbl.TopK(1, Query{Slot: 1, Type: 1, Window: Between(from, to)}); len(got) != 1 {
		t.Fatal("absolute window missed")
	}
}

func TestDecayQueryRequiresDecay(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("t", "n")
	if _, err := tbl.DecayQuery(1, Query{Slot: 1, Type: 1, Window: LastDays(1)}); err == nil {
		t.Fatal("DecayQuery without decay should fail")
	}
	_ = tbl.Add(1, Entry{Timestamp: fixedNow - 100, Slot: 1, Type: 1, FID: 1, Counts: []int64{5}})
	got, err := tbl.DecayQuery(1, Query{Slot: 1, Type: 1, Window: LastDays(1), Decay: ExpDecay, DecayFactor: 0.9})
	if err != nil || len(got) != 1 {
		t.Fatalf("decay query = %+v, %v", got, err)
	}
}

func TestAddValidation(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("t", "n")
	if err := tbl.Add(1); err == nil {
		t.Fatal("empty Add should fail")
	}
	if _, err := db.Table("missing"); err == nil {
		t.Fatal("missing table lookup should fail")
	}
	if tt, err := db.Table("t"); err != nil || tt.Name() != "t" {
		t.Fatalf("table lookup = %v, %v", tt, err)
	}
}

func TestCustomSchemaReducer(t *testing.T) {
	db := openDB(t)
	schema := model.NewSchema("bid", "clicks").WithReducer("bid", model.ReduceLast)
	tbl, err := db.CreateTableSchema("ads", schema)
	if err != nil {
		t.Fatal(err)
	}
	_ = tbl.Add(5, Entry{Timestamp: fixedNow - 3000, Slot: 1, Type: 1, FID: 7, Counts: []int64{100, 1}})
	_ = tbl.Add(5, Entry{Timestamp: fixedNow - 1000, Slot: 1, Type: 1, FID: 7, Counts: []int64{70, 1}})
	got, err := tbl.TopK(5, Query{Slot: 1, Type: 1, Window: LastDays(1), SortByAction: "clicks"})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Counts[0] != 70 {
		t.Fatalf("bid = %d, want 70 (LAST semantics)", got[0].Counts[0])
	}
	if got[0].Counts[1] != 2 {
		t.Fatalf("clicks = %d, want 2 (SUM)", got[0].Counts[1])
	}
}

func TestDiskPersistenceAcrossOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ips.db")
	cfg := config.Default()
	cfg.WriteIsolation = false

	db, err := Open(Options{Path: path, Config: &cfg, Clock: func() int64 { return fixedNow }})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", "n")
	_ = tbl.Add(9, Entry{Timestamp: fixedNow - 100, Slot: 1, Type: 1, FID: 4, Counts: []int64{6}})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Path: path, Config: &cfg, Clock: func() int64 { return fixedNow }})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, _ := db2.CreateTable("t", "n")
	got, err := tbl2.TopK(9, Query{Slot: 1, Type: 1, Window: LastDays(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Counts[0] != 6 {
		t.Fatalf("reopened data = %+v", got)
	}
}

func TestWriteIsolationFacade(t *testing.T) {
	cfg := config.Default()
	cfg.WriteIsolation = true
	cfg.MergeInterval = config.Duration(time.Hour)
	db, err := Open(Options{Config: &cfg, Clock: func() int64 { return fixedNow }})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, _ := db.CreateTable("t", "n")
	_ = tbl.Add(1, Entry{Timestamp: fixedNow - 50, Slot: 1, Type: 1, FID: 2, Counts: []int64{1}})
	if got, _ := tbl.TopK(1, Query{Slot: 1, Type: 1, Window: LastDays(1)}); len(got) != 0 {
		t.Fatal("write visible before merge")
	}
	db.MergeWrites()
	if got, _ := tbl.TopK(1, Query{Slot: 1, Type: 1, Window: LastDays(1)}); len(got) != 1 {
		t.Fatal("write missing after merge")
	}
}

func TestRemoteFacade(t *testing.T) {
	clock := func() model.Millis { return fixedNow }
	cl, err := cluster.New(cluster.Options{
		Regions:            []string{"east"},
		InstancesPerRegion: 2,
		Clock:              clock,
		Tables:             map[string]*model.Schema{"up": model.NewSchema("like", "share")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	r, err := Connect(RemoteOptions{Caller: "app", Region: "east", Registry: cl.Registry, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if err := r.Add("up", 11, Entry{Timestamp: fixedNow - 500, Slot: 1, Type: 1, FID: 3, Counts: []int64{8, 0}}); err != nil {
		t.Fatal(err)
	}
	for _, n := range cl.Nodes() {
		n.Instance().MergeAll()
	}
	got, err := r.TopK("up", 11, Query{Slot: 1, Type: 1, Window: LastDays(1), SortByAction: "like", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Counts[0] != 8 {
		t.Fatalf("remote topk = %+v", got)
	}
	stats, err := r.Stats()
	if err != nil || len(stats) != 2 {
		t.Fatalf("stats = %d, %v", len(stats), err)
	}
	if r.ErrorRate() != 0 {
		t.Fatalf("error rate = %v", r.ErrorRate())
	}
	// Filter and DecayQuery paths.
	if _, err := r.Filter("up", 11, Query{Slot: 1, Type: 1, Window: LastDays(1), MinCount: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DecayQuery("up", 11, Query{Slot: 1, Type: 1, Window: LastDays(1), Decay: ExpDecay, DecayFactor: 0.5}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteQueryBatchFacade(t *testing.T) {
	clock := func() model.Millis { return fixedNow }
	cl, err := cluster.New(cluster.Options{
		Regions:            []string{"east"},
		InstancesPerRegion: 2,
		Clock:              clock,
		Tables:             map[string]*model.Schema{"up": model.NewSchema("like", "share")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	r, err := Connect(RemoteOptions{Caller: "app", Region: "east", Registry: cl.Registry, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for id := uint64(1); id <= 8; id++ {
		err := r.Add("up", id, Entry{
			Timestamp: fixedNow - 500, Slot: 1, Type: 1,
			FID: 100 + id, Counts: []int64{int64(id), 1},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range cl.Nodes() {
		n.Instance().MergeAll()
	}

	q := Query{Slot: 1, Type: 1, Window: LastDays(1), SortByAction: "like", K: 5}
	items := make([]BatchItem, 0, 10)
	for id := uint64(1); id <= 8; id++ {
		items = append(items, BatchItem{Table: "up", ID: id, Op: OpTopK, Query: q})
	}
	items = append(items,
		BatchItem{Table: "up", ID: 3, Op: OpDecay,
			Query: Query{Slot: 1, Type: 1, Window: LastDays(1), Decay: ExpDecay, DecayFactor: 0.5}},
		BatchItem{Table: "ghost", ID: 1, Op: OpTopK, Query: q},
	)
	served := make(map[string]int64)
	for _, n := range cl.Nodes() {
		served[n.Addr] = n.Instance().Stats().Queries
	}
	feats, err := r.QueryBatch(items)
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("err = %v, want ErrPartial (the ghost-table slot)", err)
	}
	if len(feats) != len(items) {
		t.Fatalf("got %d result slots for %d items", len(feats), len(items))
	}
	for i := 0; i < 8; i++ {
		if len(feats[i]) != 1 || feats[i][0].FID != 100+items[i].ID {
			t.Fatalf("slot %d = %+v", i, feats[i])
		}
	}
	if len(feats[8]) != 1 { // decay slot
		t.Fatalf("decay slot = %+v", feats[8])
	}
	if feats[9] != nil {
		t.Fatalf("failed slot carries features: %+v", feats[9])
	}
	// Every sub-query was a read of its own, served by its ring owner:
	// both instances served their share.
	for _, n := range cl.Nodes() {
		if n.Instance().Stats().Queries-served[n.Addr] == 0 {
			t.Fatalf("%s served none of the batch's sub-queries", n.Addr)
		}
	}
}

func TestUDAFFacade(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("t", "impression", "click")
	_ = tbl.Add(1, Entry{Timestamp: fixedNow - 100, Slot: 1, Type: 1, FID: 1, Counts: []int64{100, 5}})
	_ = tbl.Add(1, Entry{Timestamp: fixedNow - 100, Slot: 1, Type: 1, FID: 2, Counts: []int64{10, 6}})

	// Built-in ctr UDAF: fid 2 (0.6) outranks fid 1 (0.05).
	got, err := tbl.TopK(1, Query{Slot: 1, Type: 1, Window: LastDays(1), UDAF: "ctr", SortByUDAF: true})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].FID != 2 || got[0].Score != 0.6 {
		t.Fatalf("ctr top = %+v", got[0])
	}
	// MinScore filter.
	got, err = tbl.TopK(1, Query{Slot: 1, Type: 1, Window: LastDays(1), UDAF: "ctr", SortByUDAF: true, MinScore: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("min-score kept %d", len(got))
	}
	// Custom weighted UDAF.
	if err := db.RegisterWeightedUDAF("value", 0.1, 10); err != nil {
		t.Fatal(err)
	}
	got, err = tbl.TopK(1, Query{Slot: 1, Type: 1, Window: LastDays(1), UDAF: "value", SortByUDAF: true})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].FID != 2 { // 0.1*10+10*6=61 vs 0.1*100+10*5=60
		t.Fatalf("weighted top = %+v", got[0])
	}
	// Unknown UDAF errors.
	if _, err := tbl.TopK(1, Query{Slot: 1, Type: 1, Window: LastDays(1), UDAF: "ghost", SortByUDAF: true}); err == nil {
		t.Fatal("unknown UDAF should error")
	}
}

func TestDeleteProfileFacade(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("t", "n")
	_ = tbl.Add(5, Entry{Timestamp: fixedNow - 100, Slot: 1, Type: 1, FID: 1, Counts: []int64{1}})
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteProfile("t", 5); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.TopK(5, Query{Slot: 1, Type: 1, Window: LastDays(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("deleted profile returned %+v", got)
	}
}

func TestFacadeCoverageGaps(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("t", "n")
	_ = tbl.Add(1, Entry{Timestamp: fixedNow - 100, Slot: 1, Type: 1, FID: 4, Counts: []int64{3}})
	_ = tbl.Add(1, Entry{Timestamp: fixedNow - 100, Slot: 1, Type: 1, FID: 5, Counts: []int64{1}})

	// Instance() exposes the server for advanced use.
	if db.Instance() == nil || db.Instance().Name() == "" {
		t.Fatal("Instance() should expose the live server")
	}
	// RegisterUDAF with a custom function.
	if err := db.RegisterUDAF("double", func(counts []int64) float64 { return 2 * float64(counts[0]) }); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.TopK(1, Query{Slot: 1, Type: 1, Window: LastDays(1), UDAF: "double", SortByUDAF: true})
	if err != nil || got[0].Score != 6 {
		t.Fatalf("custom udaf = %+v, %v", got, err)
	}
	// Filter path on the Table handle.
	got, err = tbl.Filter(1, Query{Slot: 1, Type: 1, Window: LastDays(1), MinCount: 2})
	if err != nil || len(got) != 1 || got[0].FID != 4 {
		t.Fatalf("filter = %+v, %v", got, err)
	}
	// Compact path on the Table handle.
	if err := tbl.Compact(1); err != nil {
		t.Fatal(err)
	}
	// Invalid schema through CreateTableSchema.
	if _, err := db.CreateTableSchema("bad", &model.Schema{}); err == nil {
		t.Fatal("invalid schema should fail")
	}
}

func TestRemoteClientAccessor(t *testing.T) {
	cl, err := cluster.New(cluster.Options{
		Regions:            []string{"east"},
		InstancesPerRegion: 1,
		Clock:              func() model.Millis { return fixedNow },
		Tables:             map[string]*model.Schema{"up": model.NewSchema("n")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	r, err := Connect(RemoteOptions{Caller: "c", Region: "east", Registry: cl.Registry, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Client() == nil {
		t.Fatal("Client() accessor broken")
	}
	// A query against an unknown table surfaces a remote error and counts
	// toward the client-observed error rate.
	if _, err := r.TopK("ghost", 1, Query{Slot: 1, Type: 1, Window: LastDays(1)}); err == nil {
		t.Fatal("unknown table should fail")
	}
	if r.ErrorRate() == 0 {
		t.Fatal("error rate should reflect the failure")
	}
}
