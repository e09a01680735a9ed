package rpc

import "sync/atomic"

// Process-wide wire accounting. Every frame that crosses a connection —
// client or server side, either direction — bumps these counters with
// its full on-wire size (length prefix included). They exist so
// experiments can attribute byte savings to an encoding change (e.g.
// batch v2's shared-structure responses) using what actually hit the
// socket, not what an encoder said it produced. Writes and Reads count
// the syscalls that carried those frames: FramesWritten/Writes is the
// number an operator reads to see batching happen. The counters are
// touched once per syscall, not once per frame, and always before the
// frames they count can complete a call.
//
// The counters are global rather than per-connection because the bench
// harness runs client and server in one process and wants one number;
// they are monotonic, so callers measure intervals by subtracting two
// IOStats() snapshots rather than resetting.
var (
	ioBytesWritten  atomic.Uint64
	ioBytesRead     atomic.Uint64
	ioFramesWritten atomic.Uint64
	ioFramesRead    atomic.Uint64
	ioWrites        atomic.Uint64
	ioReads         atomic.Uint64
)

// IOStatsSnapshot is one reading of the process-wide wire counters.
type IOStatsSnapshot struct {
	BytesWritten  uint64
	BytesRead     uint64
	FramesWritten uint64
	FramesRead    uint64
	Writes        uint64 // write syscalls
	Reads         uint64 // read syscalls
}

// IOStats returns the current wire totals. Subtract two snapshots to
// meter an interval.
func IOStats() IOStatsSnapshot {
	return IOStatsSnapshot{
		BytesWritten:  ioBytesWritten.Load(),
		BytesRead:     ioBytesRead.Load(),
		FramesWritten: ioFramesWritten.Load(),
		FramesRead:    ioFramesRead.Load(),
		Writes:        ioWrites.Load(),
		Reads:         ioReads.Load(),
	}
}

// Sub returns the interval s - prev, counter-wise.
func (s IOStatsSnapshot) Sub(prev IOStatsSnapshot) IOStatsSnapshot {
	return IOStatsSnapshot{
		BytesWritten:  s.BytesWritten - prev.BytesWritten,
		BytesRead:     s.BytesRead - prev.BytesRead,
		FramesWritten: s.FramesWritten - prev.FramesWritten,
		FramesRead:    s.FramesRead - prev.FramesRead,
		Writes:        s.Writes - prev.Writes,
		Reads:         s.Reads - prev.Reads,
	}
}

// noteWrite counts one write syscall carrying frames frames of bytes
// bytes in total.
//
//ips:hotpath
func noteWrite(frames, bytes int) {
	ioBytesWritten.Add(uint64(bytes))
	ioFramesWritten.Add(uint64(frames))
	ioWrites.Add(1)
}

// noteRead counts reads read syscalls and the frames they completed.
//
//ips:hotpath
func noteRead(frames, bytes, reads int) {
	if frames > 0 {
		ioBytesRead.Add(uint64(bytes))
		ioFramesRead.Add(uint64(frames))
	}
	ioReads.Add(uint64(reads))
}
