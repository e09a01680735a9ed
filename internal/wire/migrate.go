package wire

import (
	"fmt"

	"ips/internal/codec"
	"ips/internal/model"
)

// Migration methods (elastic resharding, DESIGN.md "Elastic resharding").
// A rebalance coordinator drives the handoff in passes: `snapshot` asks
// the current owner to drain a set of profiles through its flush path
// (journal watermarks advance, blobs become durable) and ship the flushed
// blobs; `install` lands them on the new owner. The final pass sets
// Release on the snapshot (the old owner drops the profiles after
// flushing) and Mark on the install (the new owner only raises its
// migration watermark — the dual-write window already delivered the
// content).
const (
	MethodMigrateSnapshot = "ips.migrate.snapshot"
	MethodMigrateInstall  = "ips.migrate.install"
)

// MigrateRequest asks the owner to snapshot (and optionally release) a
// set of profiles in one table.
type MigrateRequest struct {
	Table string
	IDs   []model.ProfileID
	// Release drops each profile from the owner's cache after its flush,
	// invalidating hot slots — the cutover step.
	Release bool
}

// MigrateFrame is one handed-off profile: the flushed blob plus the
// owner's journal watermarks at drain time. WalLSN is the freshness
// token the conservation suite tracks: every write the owner acked for
// this profile has an LSN <= WalLSN.
type MigrateFrame struct {
	ProfileID model.ProfileID
	WalLSN    uint64
	MergedLSN uint64
	MigLSN    uint64
	Blob      []byte
	// Compressed marks Blob as snap-compressed: a warm-tier export ships
	// the already-compressed form instead of re-encoding the profile,
	// and the installer inflates before decoding.
	Compressed bool
}

// MigrateFrames is the snapshot response: the drained frames plus the
// owner's journal truncation watermark (0 when journaling is off).
type MigrateFrames struct {
	Watermark uint64
	Frames    []MigrateFrame
}

// MigrateInstallRequest lands frames on the new owner. Mark selects
// watermark-only installs: the profile's MigLSN is raised without
// touching its content (used by the release pass, when dual writes have
// already delivered every effect and a content replace could discard
// post-cutover writes).
type MigrateInstallRequest struct {
	Table  string
	Mark   bool
	Frames []MigrateFrame
}

// MigrateInstalled reports what the install applied.
type MigrateInstalled struct {
	Installed int64 // content installs (replace or insert)
	Marked    int64 // watermark-only raises
}

// Field numbers.
const (
	fMigTable   = 1
	fMigID      = 2
	fMigRelease = 3

	fMigWatermark = 1
	fMigFrame     = 2

	fFrameID     = 1
	fFrameWal    = 2
	fFrameMerged = 3
	fFrameMig    = 4
	fFrameBlob   = 5
	fFrameComp   = 6

	fInstTable2 = 1
	fInstMark   = 2
	fInstFrame  = 3

	fInstDone   = 1
	fInstMarked = 2
)

// EncodeMigrateRequest serializes the snapshot request.
func EncodeMigrateRequest(r *MigrateRequest) []byte {
	var e codec.Buffer
	e.String(fMigTable, r.Table)
	for _, id := range r.IDs {
		e.Uint64(fMigID, id)
	}
	e.Bool(fMigRelease, r.Release)
	return append([]byte(nil), e.Bytes()...)
}

// DecodeMigrateRequest parses the snapshot request.
func DecodeMigrateRequest(data []byte) (*MigrateRequest, error) {
	r := &MigrateRequest{}
	rd := codec.NewReader(data)
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return nil, decodeErr("migrate req", err)
		}
		switch f {
		case fMigTable:
			r.Table, err = rd.String()
		case fMigID:
			var id uint64
			if id, err = rd.Uint64(); err == nil {
				r.IDs = append(r.IDs, id)
			}
		case fMigRelease:
			r.Release, err = rd.Bool()
		default:
			err = rd.Skip(wt)
		}
		if err != nil {
			return nil, decodeErr("migrate req field", err)
		}
	}
	if r.Table == "" {
		return nil, decodeErr("migrate req", fmt.Errorf("missing table"))
	}
	return r, nil
}

func encodeFrame(e *codec.Buffer, fr *MigrateFrame) {
	e.Uint64(fFrameID, fr.ProfileID)
	e.Uint64(fFrameWal, fr.WalLSN)
	if fr.MergedLSN != 0 {
		e.Uint64(fFrameMerged, fr.MergedLSN)
	}
	if fr.MigLSN != 0 {
		e.Uint64(fFrameMig, fr.MigLSN)
	}
	if len(fr.Blob) > 0 {
		e.Raw(fFrameBlob, fr.Blob)
	}
	if fr.Compressed {
		e.Bool(fFrameComp, true)
	}
}

// decodeFrame parses one frame, enforcing the structural invariants the
// install path relies on: a frame must name a profile (ID 0 is a
// dangling reference — nothing can anchor its watermark), and a
// mark-mode consumer additionally requires a nonzero watermark (checked
// by the caller, which knows the mode).
func decodeFrame(rd *codec.Reader) (MigrateFrame, error) {
	var fr MigrateFrame
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return fr, decodeErr("migrate frame", err)
		}
		switch f {
		case fFrameID:
			fr.ProfileID, err = rd.Uint64()
		case fFrameWal:
			fr.WalLSN, err = rd.Uint64()
		case fFrameMerged:
			fr.MergedLSN, err = rd.Uint64()
		case fFrameMig:
			fr.MigLSN, err = rd.Uint64()
		case fFrameBlob:
			var b []byte
			if b, err = rd.Bytes(); err == nil {
				fr.Blob = append([]byte(nil), b...)
			}
		case fFrameComp:
			fr.Compressed, err = rd.Bool()
		default:
			err = rd.Skip(wt)
		}
		if err != nil {
			return fr, decodeErr("migrate frame field", err)
		}
	}
	if fr.ProfileID == 0 {
		return fr, decodeErr("migrate frame", fmt.Errorf("frame without profile id"))
	}
	return fr, nil
}

// EncodeMigrateFrames serializes the snapshot response.
func EncodeMigrateFrames(r *MigrateFrames) []byte {
	var e codec.Buffer
	if r.Watermark != 0 {
		e.Uint64(fMigWatermark, r.Watermark)
	}
	for i := range r.Frames {
		fr := &r.Frames[i]
		e.Message(fMigFrame, func(b *codec.Buffer) { encodeFrame(b, fr) })
	}
	return append([]byte(nil), e.Bytes()...)
}

// DecodeMigrateFrames parses the snapshot response.
func DecodeMigrateFrames(data []byte) (*MigrateFrames, error) {
	r := &MigrateFrames{}
	rd := codec.NewReader(data)
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return nil, decodeErr("migrate frames", err)
		}
		switch f {
		case fMigWatermark:
			r.Watermark, err = rd.Uint64()
		case fMigFrame:
			var sub codec.Reader
			if err = rd.Sub(&sub); err == nil {
				var fr MigrateFrame
				if fr, err = decodeFrame(&sub); err == nil {
					r.Frames = append(r.Frames, fr)
				}
			}
		default:
			err = rd.Skip(wt)
		}
		if err != nil {
			return nil, decodeErr("migrate frames field", err)
		}
	}
	return r, nil
}

// EncodeMigrateInstall serializes the install request.
func EncodeMigrateInstall(r *MigrateInstallRequest) []byte {
	var e codec.Buffer
	e.String(fInstTable2, r.Table)
	e.Bool(fInstMark, r.Mark)
	for i := range r.Frames {
		fr := &r.Frames[i]
		e.Message(fInstFrame, func(b *codec.Buffer) { encodeFrame(b, fr) })
	}
	return append([]byte(nil), e.Bytes()...)
}

// DecodeMigrateInstall parses the install request. Mark-mode frames with
// a zero watermark are rejected: a watermark-only install that names no
// watermark is a dangling reference and would silently do nothing.
func DecodeMigrateInstall(data []byte) (*MigrateInstallRequest, error) {
	r := &MigrateInstallRequest{}
	rd := codec.NewReader(data)
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return nil, decodeErr("migrate install", err)
		}
		switch f {
		case fInstTable2:
			r.Table, err = rd.String()
		case fInstMark:
			r.Mark, err = rd.Bool()
		case fInstFrame:
			var sub codec.Reader
			if err = rd.Sub(&sub); err == nil {
				var fr MigrateFrame
				if fr, err = decodeFrame(&sub); err == nil {
					r.Frames = append(r.Frames, fr)
				}
			}
		default:
			err = rd.Skip(wt)
		}
		if err != nil {
			return nil, decodeErr("migrate install field", err)
		}
	}
	if r.Table == "" {
		return nil, decodeErr("migrate install", fmt.Errorf("missing table"))
	}
	if r.Mark {
		for i := range r.Frames {
			if r.Frames[i].WalLSN == 0 && r.Frames[i].MigLSN == 0 {
				return nil, decodeErr("migrate install", fmt.Errorf("mark frame for profile %d without watermark", r.Frames[i].ProfileID))
			}
		}
	}
	return r, nil
}

// EncodeMigrateInstalled serializes the install response.
func EncodeMigrateInstalled(r *MigrateInstalled) []byte {
	var e codec.Buffer
	e.Int64(fInstDone, r.Installed)
	e.Int64(fInstMarked, r.Marked)
	return append([]byte(nil), e.Bytes()...)
}

// DecodeMigrateInstalled parses the install response.
func DecodeMigrateInstalled(data []byte) (*MigrateInstalled, error) {
	r := &MigrateInstalled{}
	rd := codec.NewReader(data)
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return nil, decodeErr("migrate installed", err)
		}
		switch f {
		case fInstDone:
			r.Installed, err = rd.Int64()
		case fInstMarked:
			r.Marked, err = rd.Int64()
		default:
			err = rd.Skip(wt)
		}
		if err != nil {
			return nil, decodeErr("migrate installed field", err)
		}
	}
	return r, nil
}
