// Package wal implements the per-instance mutation journal that closes
// GCache's write-back loss window. The cache acknowledges a write the
// moment it lands in dirty memory (§III-C); without a journal, a process
// crash silently loses every acknowledged write since the last flush. The
// journal logs each mutation — profile adds, deletes, compaction passes —
// *before* it is applied to the cache, so a restarted instance can replay
// the unflushed suffix and recover exactly the acknowledged state.
//
// The on-disk format reuses the CRC-framed append-only record layout
// proven in kv.Disk:
//
//	u32 crc (of everything after this field)
//	u8  op (1=add, 2=delete, 3=compact, 4=offsets, 5=seq)
//	u64 lsn
//	u32 payloadLen, payload bytes (codec-encoded record body)
//
// Replay idempotence comes from the flushed watermarks embedded in every
// persisted profile: a record is applied on recovery only when its LSN
// exceeds the watermark the loaded profile carries, so a flush that raced
// the crash is never double-applied. Two watermarks exist because the
// write-isolation path (§III-F) forms a second mutation stream:
// model.Profile.WalLSN covers mutations applied directly to the main
// profile (adds, deletes, compactions) while model.Profile.MergedLSN
// covers isolated adds, which live only in the unmerged write table until
// a merge folds them in. A compaction can push WalLSN past an unmerged
// isolated add's LSN, so isolated records are tracked — and retired —
// strictly against MergedLSN.
//
// Truncation: flush threads report durable (table, profile, lsn)
// watermarks via NoteFlushed, which retires each profile's covered
// records; once enough retired bytes accumulate the journal rewrites
// itself keeping exactly the unretired records (plus the latest
// consumer-offset checkpoint per pipeline), bounding its size to the
// records of the dirty set.
//
// DESIGN.md ("Durability") derives the loss-window table per sync
// configuration; OPERATIONS.md has the crash-recovery runbook; the
// kill-and-reopen proof layer is internal/integration/recovery_test.go.
package wal

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ips/internal/codec"
	"ips/internal/config"
	"ips/internal/model"
	"ips/internal/trace"
	"ips/internal/wire"
)

// Op identifies a journal record type.
type Op uint8

// Journal record types.
const (
	// OpAdd logs one acknowledged Add call (all its entries).
	OpAdd Op = 1
	// OpDelete logs a profile deletion.
	OpDelete Op = 2
	// OpCompact logs a maintenance pass with the clock it ran at, so
	// replay truncates history identically.
	OpCompact Op = 3
	// OpOffsets checkpoints an ingestion pipeline's consumer offsets.
	OpOffsets Op = 4
	// OpSeq carries the LSN sequence's high-water mark into a rewritten
	// journal, so a reopen never reissues the LSN of a record Compact
	// dropped: profiles persist the LSNs they saw, and replay would skip
	// a reissued LSN as already flushed.
	OpSeq Op = 5
)

// Record is one journal entry. Mutation records (add/delete/compact)
// carry Table and Profile; offset checkpoints carry Name and Offsets.
type Record struct {
	LSN     uint64
	Op      Op
	Table   string
	Profile model.ProfileID
	Entries []wire.AddEntry // OpAdd
	// Isolated marks an OpAdd that was acknowledged into the write table
	// (§III-F): its data reaches the persisted main profile only through a
	// merge, so it is retired against MergedLSN rather than WalLSN.
	Isolated bool
	Now      model.Millis // OpCompact: the maintenance clock
	// Cfg is the configuration snapshot an OpCompact pass ran with, so
	// replay truncates identically even after a config hot-reload; nil on
	// records written before cfg journaling existed.
	Cfg     *config.Config
	Name    string // OpOffsets: pipeline identifier
	Offsets map[string][]int64

	frame []byte // the full on-disk frame, as read or written
}

// retained is what the journal keeps of a mutation record after it is
// written: the on-disk frame, for rewrites and for Records to decode on
// demand. The decoded form — above all an add's Entries, which is the
// caller's own slice — is not kept: it would pin every acknowledged
// write's entries until the next Compact.
type retained struct {
	lsn   uint64
	frame []byte
}

// Payload field numbers.
const (
	fRecTable    = 1
	fRecProfile  = 2
	fRecEntry    = 3
	fRecNow      = 4
	fRecName     = 5
	fRecTopic    = 6
	fRecIsolated = 7
	fRecCfg      = 8

	fEntryTS     = 1
	fEntrySlot   = 2
	fEntryType   = 3
	fEntryFID    = 4
	fEntryCounts = 5

	fTopicName    = 1
	fTopicOffsets = 2
)

// Options tunes a Journal.
type Options struct {
	// SyncEvery forces an fsync every N appended records; 0 disables
	// fsync. The bufio writer is flushed on every append regardless, so
	// acknowledged records survive a process crash either way; fsync is
	// only needed to additionally survive power loss (matching the
	// kv.Disk policy).
	SyncEvery int
	// CompactMinBytes is the flushed-byte threshold that triggers an
	// automatic journal rewrite; <= 0 uses 1 MiB. Set very large to make
	// compaction effectively manual (tests call Compact directly).
	CompactMinBytes int64
}

// Journal is a crash-consistency mutation log. All methods are safe for
// concurrent use.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	path string
	opts Options

	nextLSN uint64
	// records holds the retained mutation records in LSN order: the
	// unretired records plus retired ones not yet compacted away.
	records []retained
	// offsets holds the latest consumer-offset checkpoint per pipeline
	// name; retained across rewrites.
	offsets map[string]Record
	// pending maps a profile key to its unretired record LSNs+sizes in
	// ascending order: Compact keeps exactly these records, and
	// Watermark is one below the minimum head.
	pending map[string][]pendingRec

	flushedBytes int64 // droppable bytes accumulated since the last rewrite
	size         int64 // current file size
	sinceSync    int
	closed       bool

	// Counters for the bench harness (read via Stats).
	appends     int64
	appendBytes int64
	compactions int64
	syncs       int64
}

type pendingRec struct {
	lsn  uint64
	size int64
	// isolated records are retired by the merged watermark, not the main
	// one: a main-profile flush does not cover unmerged write-table data.
	isolated bool
}

func profileKey(table string, id model.ProfileID) string {
	return table + "\x00" + fmt.Sprintf("%x", uint64(id))
}

// Open opens (or creates) the journal at path, replaying any existing
// records into memory and truncating a torn tail (the remains of a crashed
// append) exactly as kv.Disk does.
func Open(path string, opts Options) (*Journal, error) {
	if opts.CompactMinBytes <= 0 {
		opts.CompactMinBytes = 1 << 20
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	j := &Journal{
		f: f, path: path, opts: opts,
		nextLSN: 1,
		offsets: make(map[string]Record),
		pending: make(map[string][]pendingRec),
	}
	if err := j.replay(); err != nil {
		_ = f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		_ = f.Close()
		return nil, err
	}
	j.w = bufio.NewWriter(f)
	return j, nil
}

// replay loads the journal into memory, stopping at (and truncating) the
// first corrupt or torn record.
func (j *Journal) replay() error {
	st, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat: %w", err)
	}
	r := bufio.NewReader(j.f)
	var off int64
	for {
		rec, n, err := readFrame(r, st.Size()-off)
		if err == io.EOF {
			break
		}
		if err != nil {
			if terr := j.f.Truncate(off); terr != nil {
				return fmt.Errorf("wal: truncate torn tail: %w", terr)
			}
			break
		}
		off += int64(n)
		j.admit(rec)
		if rec.LSN >= j.nextLSN {
			j.nextLSN = rec.LSN + 1
		}
	}
	j.size = off
	return nil
}

// admit registers a decoded record in the in-memory state.
func (j *Journal) admit(rec Record) {
	if rec.Op == OpSeq {
		return // replay has already advanced nextLSN past it
	}
	if rec.Op == OpOffsets {
		j.offsets[rec.Name] = rec
		return
	}
	j.records = append(j.records, retained{lsn: rec.LSN, frame: rec.frame})
	key := profileKey(rec.Table, rec.Profile)
	j.pending[key] = append(j.pending[key], pendingRec{lsn: rec.LSN, size: int64(len(rec.frame)), isolated: rec.Isolated})
}

// encodeEntries writes the add-entry list into the payload buffer.
func encodeEntries(e *codec.Buffer, entries []wire.AddEntry) {
	for _, en := range entries {
		e.Message(fRecEntry, func(se *codec.Buffer) {
			se.Int64(fEntryTS, en.Timestamp)
			se.Uint32(fEntrySlot, en.Slot)
			se.Uint32(fEntryType, en.Type)
			se.Uint64(fEntryFID, en.FID)
			se.PackedI64(fEntryCounts, en.Counts)
		})
	}
}

func decodeEntry(r *codec.Reader) (wire.AddEntry, error) {
	var en wire.AddEntry
	for !r.Done() {
		field, wt, err := r.Next()
		if err != nil {
			return en, err
		}
		switch field {
		case fEntryTS:
			if en.Timestamp, err = r.Int64(); err != nil {
				return en, err
			}
		case fEntrySlot:
			if en.Slot, err = r.Uint32(); err != nil {
				return en, err
			}
		case fEntryType:
			if en.Type, err = r.Uint32(); err != nil {
				return en, err
			}
		case fEntryFID:
			if en.FID, err = r.Uint64(); err != nil {
				return en, err
			}
		case fEntryCounts:
			if en.Counts, err = r.PackedI64(); err != nil {
				return en, err
			}
		default:
			if err := r.Skip(wt); err != nil {
				return en, err
			}
		}
	}
	return en, nil
}

func encodePayload(rec *Record) []byte {
	var e codec.Buffer
	switch rec.Op {
	case OpAdd:
		e.String(fRecTable, rec.Table)
		e.Uint64(fRecProfile, rec.Profile)
		if rec.Isolated {
			e.Bool(fRecIsolated, true)
		}
		encodeEntries(&e, rec.Entries)
	case OpDelete:
		e.String(fRecTable, rec.Table)
		e.Uint64(fRecProfile, rec.Profile)
	case OpCompact:
		e.String(fRecTable, rec.Table)
		e.Uint64(fRecProfile, rec.Profile)
		e.Int64(fRecNow, rec.Now)
		if rec.Cfg != nil {
			// JSON keeps the snapshot schema-flexible; compactions are rare
			// relative to adds, so the size cost is negligible.
			if raw, err := json.Marshal(rec.Cfg); err == nil {
				e.Raw(fRecCfg, raw)
			}
		}
	case OpOffsets:
		e.String(fRecName, rec.Name)
		// Sorted topics: the frame bytes (and their CRC) must be identical
		// on every encode, or replay and compaction rewrites diverge.
		topics := make([]string, 0, len(rec.Offsets))
		for topic := range rec.Offsets {
			topics = append(topics, topic)
		}
		sort.Strings(topics)
		for _, topic := range topics {
			offs := rec.Offsets[topic]
			e.Message(fRecTopic, func(te *codec.Buffer) {
				te.String(fTopicName, topic)
				te.PackedI64(fTopicOffsets, offs)
			})
		}
	}
	return append([]byte(nil), e.Bytes()...)
}

func decodePayload(rec *Record, payload []byte) error {
	r := codec.NewReader(payload)
	for !r.Done() {
		field, wt, err := r.Next()
		if err != nil {
			return err
		}
		switch field {
		case fRecTable:
			if rec.Table, err = r.String(); err != nil {
				return err
			}
		case fRecProfile:
			if rec.Profile, err = r.Uint64(); err != nil {
				return err
			}
		case fRecEntry:
			var sub codec.Reader
			if err := r.Sub(&sub); err != nil {
				return err
			}
			en, err := decodeEntry(&sub)
			if err != nil {
				return err
			}
			rec.Entries = append(rec.Entries, en)
		case fRecNow:
			if rec.Now, err = r.Int64(); err != nil {
				return err
			}
		case fRecIsolated:
			if rec.Isolated, err = r.Bool(); err != nil {
				return err
			}
		case fRecCfg:
			raw, err := r.Bytes()
			if err != nil {
				return err
			}
			var cfg config.Config
			if err := json.Unmarshal(raw, &cfg); err != nil {
				return fmt.Errorf("wal: compact cfg: %w", err)
			}
			rec.Cfg = &cfg
		case fRecName:
			if rec.Name, err = r.String(); err != nil {
				return err
			}
		case fRecTopic:
			var sub codec.Reader
			if err := r.Sub(&sub); err != nil {
				return err
			}
			var name string
			var offs []int64
			for !sub.Done() {
				f2, wt2, err := sub.Next()
				if err != nil {
					return err
				}
				switch f2 {
				case fTopicName:
					if name, err = sub.String(); err != nil {
						return err
					}
				case fTopicOffsets:
					if offs, err = sub.PackedI64(); err != nil {
						return err
					}
				default:
					if err := sub.Skip(wt2); err != nil {
						return err
					}
				}
			}
			if rec.Offsets == nil {
				rec.Offsets = make(map[string][]int64)
			}
			rec.Offsets[name] = offs
		default:
			if err := r.Skip(wt); err != nil {
				return err
			}
		}
	}
	return nil
}

const (
	frameHdrLen = 4 + 1 + 8 + 4
	maxPayload  = 1 << 30
)

// buildFrame renders a record to its on-disk frame.
func buildFrame(op Op, lsn uint64, payload []byte) []byte {
	frame := make([]byte, frameHdrLen+len(payload))
	frame[4] = byte(op)
	binary.LittleEndian.PutUint64(frame[5:], lsn)
	binary.LittleEndian.PutUint32(frame[13:], uint32(len(payload)))
	copy(frame[frameHdrLen:], payload)
	binary.LittleEndian.PutUint32(frame[0:], crc32.ChecksumIEEE(frame[4:]))
	return frame
}

// readFrame reads and verifies one frame from r, which holds remain more
// bytes. A length field claiming more than that is a torn record, found
// before anything is allocated for it: allocation tracks the bytes
// actually present, not what a corrupt header says.
func readFrame(r *bufio.Reader, remain int64) (Record, int, error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Record{}, 0, errors.New("wal: torn record header")
		}
		return Record{}, 0, err
	}
	plen := binary.LittleEndian.Uint32(hdr[13:])
	if plen > maxPayload {
		return Record{}, 0, errors.New("wal: absurd payload length")
	}
	if int64(plen) > remain-frameHdrLen {
		return Record{}, 0, errors.New("wal: torn payload")
	}
	frame := make([]byte, frameHdrLen+int(plen))
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[frameHdrLen:]); err != nil {
		return Record{}, 0, errors.New("wal: torn payload")
	}
	if crc32.ChecksumIEEE(frame[4:]) != binary.LittleEndian.Uint32(frame) {
		return Record{}, 0, errors.New("wal: crc mismatch")
	}
	rec, err := decodeFrame(frame)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, len(frame), nil
}

// decodeFrame decodes a complete, checksum-verified frame.
func decodeFrame(frame []byte) (Record, error) {
	rec := Record{LSN: binary.LittleEndian.Uint64(frame[5:]), Op: Op(frame[4]), frame: frame}
	if err := decodePayload(&rec, frame[frameHdrLen:]); err != nil {
		return Record{}, fmt.Errorf("wal: payload: %w", err)
	}
	return rec, nil
}

// ErrClosed reports an operation on a closed journal.
var ErrClosed = errors.New("wal: journal closed")

// append writes the record durably and registers it; caller holds j.mu.
// The write+flush is attributed to a wal.append span on ctx's trace,
// with the fsync (when this append crosses the SyncEvery boundary)
// broken out as a wal.sync child.
func (j *Journal) appendLocked(ctx context.Context, rec Record) (lsn uint64, err error) {
	actx, sp := trace.StartSpan(ctx, trace.StageWALAppend)
	defer func() { sp.EndErr(err) }()
	if j.closed {
		return 0, ErrClosed
	}
	rec.LSN = j.nextLSN
	rec.frame = buildFrame(rec.Op, rec.LSN, encodePayload(&rec))
	if _, err := j.w.Write(rec.frame); err != nil {
		return 0, err
	}
	// Flush to the OS on every append: the record now survives a process
	// crash, which is the failure mode the write-back window leaks under.
	if err := j.w.Flush(); err != nil {
		return 0, err
	}
	if j.opts.SyncEvery > 0 {
		j.sinceSync++
		if j.sinceSync >= j.opts.SyncEvery {
			j.sinceSync = 0
			ssp := trace.StartLeaf(actx, trace.StageWALSync)
			serr := j.f.Sync()
			ssp.EndErr(serr)
			if serr != nil {
				return 0, serr
			}
			j.syncs++
		}
	}
	j.nextLSN++
	j.size += int64(len(rec.frame))
	j.appends++
	j.appendBytes += int64(len(rec.frame))
	j.admit(rec)
	return rec.LSN, nil
}

// AppendAdd logs one acknowledged Add (all entries of one call) and
// returns its LSN. Must be invoked before the mutation is applied to the
// cache, under whatever lock serializes the profile's apply order. The
// ctx carries the request's trace, if sampled.
func (j *Journal) AppendAdd(ctx context.Context, table string, id model.ProfileID, entries []wire.AddEntry) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(ctx, Record{Op: OpAdd, Table: table, Profile: id, Entries: entries})
}

// AppendIsolatedAdd logs an Add acknowledged into the write-isolation
// table (§III-F). The record stays pending until a NoteFlushed whose
// MERGED watermark covers it: until the merge worker folds the write
// table into the main profile, a main-profile flush does not persist this
// data, no matter how far the main WalLSN has advanced.
func (j *Journal) AppendIsolatedAdd(ctx context.Context, table string, id model.ProfileID, entries []wire.AddEntry) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(ctx, Record{Op: OpAdd, Table: table, Profile: id, Entries: entries, Isolated: true})
}

// AppendDelete logs a profile deletion.
func (j *Journal) AppendDelete(table string, id model.ProfileID) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(context.Background(), Record{Op: OpDelete, Table: table, Profile: id})
}

// AppendCompact logs a maintenance pass evaluated at now under cfg; the
// snapshot rides the record so replay re-runs the identical truncation
// even if the configuration was hot-reloaded before the crash.
func (j *Journal) AppendCompact(table string, id model.ProfileID, now model.Millis, cfg config.Config) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(context.Background(), Record{Op: OpCompact, Table: table, Profile: id, Now: now, Cfg: &cfg})
}

// SaveOffsets checkpoints a pipeline's consumer offsets under name. Only
// the latest checkpoint per name survives journal rewrites.
func (j *Journal) SaveOffsets(name string, offsets map[string][]int64) error {
	cp := make(map[string][]int64, len(offsets))
	for topic, offs := range offsets {
		cp[topic] = append([]int64(nil), offs...)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err := j.appendLocked(context.Background(), Record{Op: OpOffsets, Name: name, Offsets: cp})
	return err
}

// Offsets returns the latest checkpointed offsets for name, or nil.
func (j *Journal) Offsets(name string) map[string][]int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.offsets[name]
	if !ok {
		return nil
	}
	out := make(map[string][]int64, len(rec.Offsets))
	for topic, offs := range rec.Offsets {
		out[topic] = append([]int64(nil), offs...)
	}
	return out
}

// Records returns the retained mutation records in LSN order, decoded
// from their frames on demand: the recovery path iterates this once at
// startup. Every retained frame was either decoded when the journal was
// opened or encoded by this process, so an error here means the two have
// diverged.
func (j *Journal) Records() ([]Record, error) {
	j.mu.Lock()
	kept := append([]retained(nil), j.records...)
	j.mu.Unlock()
	out := make([]Record, 0, len(kept))
	for _, r := range kept {
		rec, err := decodeFrame(r.frame)
		if err != nil {
			return nil, fmt.Errorf("wal: retained record %d: %w", r.lsn, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// NoteFlushed reports that the profile's persisted state now covers every
// main-stream record with LSN <= walTo and every isolated (write-table)
// record with LSN <= mergedTo: GCache flush threads call this after a
// successful Save (with the WalLSN and MergedLSN captured under the
// profile's lock), and the recovery path calls it for records already
// contained in the loaded base state. The two watermarks are deliberately
// separate — a compaction can advance WalLSN past an isolated add whose
// data still lives only in the unmerged write table, and retiring that
// record early would lose the acknowledged write on a crash before merge.
// Once enough flushed bytes accumulate the journal compacts itself.
func (j *Journal) NoteFlushed(table string, id model.ProfileID, walTo, mergedTo uint64) {
	j.mu.Lock()
	key := profileKey(table, id)
	pend := j.pending[key]
	// Retirement can leave holes (an unmerged isolated record below a
	// flushed main-stream record), so filter rather than pop a prefix; the
	// list stays LSN-ascending either way.
	kept := pend[:0]
	for _, pr := range pend {
		covered := pr.lsn <= walTo
		if pr.isolated {
			covered = pr.lsn <= mergedTo
		}
		if covered {
			j.flushedBytes += pr.size
		} else {
			kept = append(kept, pr)
		}
	}
	if len(kept) == 0 {
		delete(j.pending, key)
	} else {
		j.pending[key] = kept
	}
	shouldCompact := j.flushedBytes >= j.opts.CompactMinBytes
	j.mu.Unlock()
	if shouldCompact {
		_ = j.Compact()
	}
}

// watermarkLocked returns the highest LSN such that every record at or
// below it is flushed; caller holds j.mu.
func (j *Journal) watermarkLocked() uint64 {
	min := j.nextLSN // no pending: everything logged so far is flushed
	for _, pend := range j.pending {
		if len(pend) > 0 && pend[0].lsn < min {
			min = pend[0].lsn
		}
	}
	return min - 1
}

// Watermark returns the highest LSN below which every record is flushed.
func (j *Journal) Watermark() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.watermarkLocked()
}

// Compact rewrites the journal keeping exactly the unretired records
// plus the latest offset checkpoint per pipeline. Retention is by record,
// not by watermark: one record left pending for a long time does not
// keep every retired record logged after it. The rewrite goes to a temp
// file and renames over the journal, so a crash during compaction leaves
// either the old or the new journal intact.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	unretired := make(map[uint64]struct{})
	for _, pend := range j.pending {
		for _, pr := range pend {
			unretired[pr.lsn] = struct{}{}
		}
	}
	tmp := j.path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact open: %w", err)
	}
	// fail abandons a half-written rewrite: close and remove the temp file
	// so error paths do not litter the journal directory.
	fail := func(err error) error {
		_ = tf.Close()
		_ = os.Remove(tmp)
		return err
	}
	tw := bufio.NewWriter(tf)
	var kept []retained
	var size int64
	// Sorted pipeline names: the rewritten journal must be byte-identical
	// across runs for recovery to be reproducible.
	names := make([]string, 0, len(j.offsets))
	for name := range j.offsets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rec := j.offsets[name]
		if _, err := tw.Write(rec.frame); err != nil {
			return fail(err)
		}
		size += int64(len(rec.frame))
	}
	if j.nextLSN > 1 {
		seq := buildFrame(OpSeq, j.nextLSN-1, nil)
		if _, err := tw.Write(seq); err != nil {
			return fail(err)
		}
		size += int64(len(seq))
	}
	for _, rec := range j.records {
		if _, ok := unretired[rec.lsn]; !ok {
			continue
		}
		if _, err := tw.Write(rec.frame); err != nil {
			return fail(err)
		}
		kept = append(kept, rec)
		size += int64(len(rec.frame))
	}
	if err := tw.Flush(); err != nil {
		return fail(err)
	}
	if err := tf.Sync(); err != nil {
		return fail(err)
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: compact rename: %w", err)
	}
	// The rename is the commit point: j.f now points at an unlinked inode,
	// so appending through it would ack writes that vanish on restart. Any
	// failure from here on closes the journal — subsequent appends fail
	// loudly with ErrClosed instead of silently losing records.
	nf, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		j.closed = true
		_ = j.f.Close()
		return fmt.Errorf("wal: compact reopen (journal closed): %w", err)
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		_ = nf.Close()
		j.closed = true
		_ = j.f.Close()
		return fmt.Errorf("wal: compact seek (journal closed): %w", err)
	}
	_ = j.f.Close()
	j.f = nf
	j.w = bufio.NewWriter(nf)
	j.records = kept
	j.size = size
	j.flushedBytes = 0
	j.compactions++
	return nil
}

// Stats is a point-in-time summary for the bench harness and dashboards.
type Stats struct {
	Appends     int64
	AppendBytes int64
	Size        int64
	Records     int
	Pending     int
	Compactions int64
	Syncs       int64
}

// Stats captures current journal statistics.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	pending := 0
	for _, p := range j.pending {
		pending += len(p)
	}
	return Stats{
		Appends:     j.appends,
		AppendBytes: j.appendBytes,
		Size:        j.size,
		Records:     len(j.records),
		Pending:     pending,
		Compactions: j.compactions,
		Syncs:       j.syncs,
	}
}

// Close flushes, fsyncs and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.w.Flush(); err != nil {
		_ = j.f.Close()
		return err
	}
	if err := j.f.Sync(); err != nil {
		_ = j.f.Close()
		return err
	}
	return j.f.Close()
}

// Abort closes the file handle without flushing or syncing — the
// kill-and-reopen harness's process-crash simulation.
func (j *Journal) Abort() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.closed = true
	_ = j.f.Close()
}
