package kv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Disk is a durable Store backed by an append-only log with an in-memory
// index. It provides the durability role HBase plays under IPS: if the
// process dies, Reopen replays the log and recovers every acknowledged
// write.
//
// Record format (little endian):
//
//	u32 crc (of everything after this field)
//	u8  op (1=set, 2=delete)
//	u64 version
//	u32 keyLen,  key bytes
//	u32 valLen,  value bytes (op=set only)
type Disk struct {
	mu     sync.RWMutex
	data   map[string]entry
	f      *os.File
	w      *bufio.Writer
	path   string
	closed bool
	// SyncEvery forces an fsync every N appended records; 0 disables
	// per-record fsync (fastest, loses the tail on power failure —
	// acceptable for IPS, which tolerates small data loss by design).
	// Close always fsyncs regardless of SyncEvery: a clean shutdown must
	// leave nothing in the kernel page cache.
	SyncEvery int
	sinceSync int
	syncs     int64
	buf       []byte // the record append is writing
}

const (
	opSet    = 1
	opDelete = 2
)

// OpenDisk opens (or creates) a disk-backed store at path, replaying any
// existing log.
func OpenDisk(path string) (*Disk, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("kv: mkdir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kv: open: %w", err)
	}
	d := &Disk{data: make(map[string]entry), f: f, path: path}
	if err := d.replay(); err != nil {
		_ = f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		_ = f.Close()
		return nil, err
	}
	d.w = bufio.NewWriter(f)
	return d, nil
}

// replay rebuilds the index from the log, stopping at the first corrupt or
// truncated record (the tail of a crashed write) and truncating it away.
func (d *Disk) replay() error {
	st, err := d.f.Stat()
	if err != nil {
		return fmt.Errorf("kv: stat: %w", err)
	}
	r := bufio.NewReader(d.f)
	var off int64
	for {
		rec, n, err := readRecord(r, st.Size()-off)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Corrupt tail: truncate to the last good record.
			if terr := d.f.Truncate(off); terr != nil {
				return fmt.Errorf("kv: truncate corrupt tail: %w", terr)
			}
			break
		}
		off += int64(n)
		switch rec.op {
		case opSet:
			d.data[rec.key] = entry{value: rec.value, version: Version(rec.version)}
		case opDelete:
			delete(d.data, rec.key)
		}
	}
	return nil
}

type record struct {
	op      byte
	version uint64
	key     string
	value   []byte
}

// readRecord reads and verifies one record from r, which holds remain
// more bytes. A key or value length claiming more than that is a
// truncated record, found before anything is allocated for it:
// allocation tracks the bytes actually present, not what a corrupt
// header says.
func readRecord(r *bufio.Reader, remain int64) (record, int, error) {
	var hdr [4 + 1 + 8 + 4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return record{}, 0, errors.New("kv: truncated record header")
		}
		return record{}, 0, err
	}
	crc := binary.LittleEndian.Uint32(hdr[0:])
	op := hdr[4]
	version := binary.LittleEndian.Uint64(hdr[5:])
	keyLen := binary.LittleEndian.Uint32(hdr[13:])
	const maxLen = 1 << 30
	if keyLen > maxLen {
		return record{}, 0, errors.New("kv: absurd key length")
	}
	n := len(hdr) + int(keyLen)
	if int64(n) > remain {
		return record{}, 0, errors.New("kv: truncated key")
	}
	key := make([]byte, keyLen)
	if _, err := io.ReadFull(r, key); err != nil {
		return record{}, 0, errors.New("kv: truncated key")
	}
	var value []byte
	if op == opSet {
		var vl [4]byte
		if _, err := io.ReadFull(r, vl[:]); err != nil {
			return record{}, 0, errors.New("kv: truncated value length")
		}
		valLen := binary.LittleEndian.Uint32(vl[:])
		if valLen > maxLen {
			return record{}, 0, errors.New("kv: absurd value length")
		}
		n += 4 + int(valLen)
		if int64(n) > remain {
			return record{}, 0, errors.New("kv: truncated value")
		}
		value = make([]byte, valLen)
		if _, err := io.ReadFull(r, value); err != nil {
			return record{}, 0, errors.New("kv: truncated value")
		}
	}
	// Verify CRC over op|version|keyLen|key|valLen|value.
	h := crc32.NewIEEE()
	h.Write(hdr[4:])
	h.Write(key)
	if op == opSet {
		var vl [4]byte
		binary.LittleEndian.PutUint32(vl[:], uint32(len(value)))
		h.Write(vl[:])
		h.Write(value)
	}
	if h.Sum32() != crc {
		return record{}, 0, errors.New("kv: crc mismatch")
	}
	return record{op: op, version: version, key: string(key), value: value}, n, nil
}

// appendRecord appends one record in the log format to dst.
func appendRecord(dst []byte, op byte, version uint64, key string, value []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, op)
	dst = binary.LittleEndian.AppendUint64(dst, version)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = append(dst, key...)
	if op == opSet {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(value)))
		dst = append(dst, value...)
	}
	binary.LittleEndian.PutUint32(dst[start:], crc32.ChecksumIEEE(dst[start+4:]))
	return dst
}

func (d *Disk) append(op byte, version uint64, key string, value []byte) error {
	d.buf = appendRecord(d.buf[:0], op, version, key, value)
	if _, err := d.w.Write(d.buf); err != nil {
		return err
	}
	if err := d.w.Flush(); err != nil {
		return err
	}
	if d.SyncEvery > 0 {
		d.sinceSync++
		if d.sinceSync >= d.SyncEvery {
			d.sinceSync = 0
			d.syncs++
			return d.f.Sync()
		}
	}
	return nil
}

// Syncs returns the number of fsyncs issued, for durability tests.
func (d *Disk) Syncs() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.syncs
}

// Set implements Store.
func (d *Disk) Set(key string, value []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	nv := d.data[key].version + 1
	if err := d.append(opSet, uint64(nv), key, value); err != nil {
		return err
	}
	d.data[key] = entry{value: clone(value), version: nv}
	return nil
}

// Get implements Store.
func (d *Disk) Get(key string) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return nil, ErrClosed
	}
	e, ok := d.data[key]
	if !ok {
		return nil, ErrNotFound
	}
	return clone(e.value), nil
}

// Delete implements Store.
func (d *Disk) Delete(key string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if _, ok := d.data[key]; !ok {
		return nil
	}
	if err := d.append(opDelete, 0, key, nil); err != nil {
		return err
	}
	delete(d.data, key)
	return nil
}

// XSet implements Store.
func (d *Disk) XSet(key string, value []byte, expected Version) (Version, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	e, ok := d.data[key]
	if expected != 0 && (!ok || e.version != expected) {
		return e.version, ErrStaleVersion
	}
	nv := e.version + 1
	if err := d.append(opSet, uint64(nv), key, value); err != nil {
		return 0, err
	}
	d.data[key] = entry{value: clone(value), version: nv}
	return nv, nil
}

// XGet implements Store.
func (d *Disk) XGet(key string) ([]byte, Version, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return nil, 0, ErrClosed
	}
	e, ok := d.data[key]
	if !ok {
		return nil, 0, ErrNotFound
	}
	return clone(e.value), e.version, nil
}

// Len implements Store.
func (d *Disk) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.data)
}

// Close implements Store.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if err := d.w.Flush(); err != nil {
		_ = d.f.Close()
		return err
	}
	// Flush only moved the tail into the kernel page cache; without this
	// fsync a post-Close power loss could still drop acknowledged writes.
	if err := d.f.Sync(); err != nil {
		_ = d.f.Close()
		return err
	}
	d.syncs++
	return d.f.Close()
}
