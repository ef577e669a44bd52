package store

// Replication support. The store exposes its log as a logical record
// stream: frame i is the i-th record ever appended (0-based), counted
// from the beginning of time, not from the current segment layout.
// Because a replicated follower appends exactly the records its leader
// ships, the cursor is node-independent — leader and follower agree on
// frame numbers even though their segment files rotate at different
// byte offsets. Three pieces anchor the stream across compaction:
//
//   - every snapshot file starts with a store-framed snapHeader naming
//     how many frames the snapshot replaces (FramesBefore) and the
//     chained CRC32C of their payloads (Digest), atomically with the
//     rename that publishes the snapshot;
//   - ReadFrom serves records from a frame cursor, returning
//     ErrCompacted when the cursor predates the newest snapshot (the
//     shipper then bootstraps the follower from LatestSnapshot);
//   - a persisted epoch (SetEpoch) fences deposed leaders: replication
//     messages carry it, and a follower rejects frames stamped with an
//     epoch older than the one it has durably adopted.
//
// The stream digest doubles as the divergence audit: two replicas at
// the same frame cursor must report the same digest, and the leader
// keeps a ring of its recent digests, indexed by frame, so it can
// compare a lagging follower's digest against its own history.

import (
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
	"strconv"
	"strings"
)

// ErrCompacted reports a frame cursor that points below the newest
// snapshot boundary: the records were compacted away and the reader
// must re-bootstrap from the snapshot instead of tailing the log.
var ErrCompacted = errors.New("store: frames compacted into a snapshot")

// ErrNoSnapshot is returned by LatestSnapshot when the store has never
// compacted.
var ErrNoSnapshot = errors.New("store: no snapshot")

// snapHeader is the framed metadata record at the front of every
// snapshot file.
type snapHeader struct {
	// FramesBefore is the logical frame cursor at the snapshot
	// boundary: the snapshot replaces frames [0, FramesBefore).
	FramesBefore uint64 `json:"frames_before"`
	// Digest is the chained CRC32C over the payloads of those frames.
	Digest uint32 `json:"digest"`
}

// maxSnapHeaderBytes bounds the header frame so a corrupt length field
// cannot demand an absurd allocation.
const maxSnapHeaderBytes = 4096

// digestRingSize is how many recent stream digests the store retains
// for divergence audits against lagging followers.
const digestRingSize = 4096

// tailRingSize is how many recently committed frames remember where
// they start on disk. A shipper tailing near the head finds its cursor
// there and reads only the end of the live segment.
const tailRingSize = 64

// tailPos records that frame starts at byte off of segment seg.
// Segment indices start at 1, so a zero slot never matches a live
// segment.
type tailPos struct {
	frame uint64
	seg   uint64
	off   int64
}

// writeSnapHeader frames hdr onto w.
func writeSnapHeader(w io.Writer, hdr snapHeader) error {
	payload, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot header: %w", err)
	}
	if _, err := w.Write(appendFrame(nil, payload)); err != nil {
		return fmt.Errorf("store: writing snapshot header: %w", err)
	}
	return nil
}

// readSnapHeader consumes the framed header from r, leaving r
// positioned at the caller payload.
func readSnapHeader(r io.Reader, name string) (snapHeader, error) {
	var raw [frameHeaderSize]byte
	if _, err := io.ReadFull(r, raw[:]); err != nil {
		return snapHeader{}, &CorruptError{Segment: name, Reason: "truncated snapshot header"}
	}
	length := binary.LittleEndian.Uint32(raw[0:4])
	sum := binary.LittleEndian.Uint32(raw[4:8])
	if length == 0 || length > maxSnapHeaderBytes {
		return snapHeader{}, &CorruptError{Segment: name, Reason: fmt.Sprintf("implausible snapshot header length %d", length)}
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return snapHeader{}, &CorruptError{Segment: name, Reason: "truncated snapshot header payload"}
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return snapHeader{}, &CorruptError{Segment: name, Reason: "snapshot header checksum mismatch"}
	}
	var hdr snapHeader
	if err := json.Unmarshal(payload, &hdr); err != nil {
		return snapHeader{}, &CorruptError{Segment: name, Reason: "undecodable snapshot header"}
	}
	return hdr, nil
}

// Frames reports the logical length of the record stream: the number
// of records the full history holds (snapshot base + appended). Frame
// cursors index into [0, Frames()).
func (s *Store) Frames() uint64 { return s.frames.Load() }

// StreamDigest reports the chained CRC32C over every record payload in
// stream order. Replicas at the same Frames() must agree on it.
func (s *Store) StreamDigest() uint32 { return s.digest.Load() }

// WaitFrames blocks until the stream holds more than cursor frames
// (nil), the store closes (ErrClosed), or ctx ends (ctx.Err()). Only
// committed appends and snapshot installs advance the stream, so a
// failed append never wakes it.
func (s *Store) WaitFrames(ctx context.Context, cursor uint64) error {
	for {
		s.mu.Lock()
		if s.frames.Load() > cursor {
			s.mu.Unlock()
			return nil
		}
		if s.closed {
			s.mu.Unlock()
			return ErrClosed
		}
		if s.waitCh == nil {
			s.waitCh = make(chan struct{})
		}
		ch := s.waitCh
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// wakeLocked releases every WaitFrames caller to re-check the cursor.
// With no caller waiting it does nothing. Callers hold s.mu.
func (s *Store) wakeLocked() {
	if s.waitCh != nil {
		close(s.waitCh)
		s.waitCh = nil
	}
}

// pushDigestLocked files the current digest into the audit ring.
// Callers hold s.mu.
func (s *Store) pushDigestLocked() {
	s.digests[s.frames.Load()%digestRingSize] = s.digest.Load()
}

// DigestAt looks up the stream digest this store observed when its
// cursor was exactly frames. It reports false when the observation has
// aged out of the ring (or never happened) — the auditor then skips
// the comparison rather than inventing a verdict.
func (s *Store) DigestAt(frames uint64) (uint32, bool) {
	if frames == 0 {
		return 0, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	head := s.frames.Load()
	if frames < s.ringLo || frames > head || head-frames >= digestRingSize {
		return 0, false
	}
	return s.digests[frames%digestRingSize], true
}

// ReadFrom returns records starting at the given frame cursor, up to
// roughly maxBytes of payload (at least one record when any is
// available), along with the cursor just past the last record
// returned. An empty batch with next == cursor means the reader is
// caught up. A cursor below the newest snapshot boundary returns
// ErrCompacted: those records no longer exist as frames and the reader
// must bootstrap from LatestSnapshot instead. Reads do not block
// appends: file contents are re-scanned (and CRC-checked) outside the
// store lock, bounded by the committed size captured under it. A
// cursor among the last tailRingSize committed frames of the live
// segment reads only from that frame's offset on; any other cursor
// scans its segments from the start.
func (s *Store) ReadFrom(cursor uint64, maxBytes int) ([][]byte, uint64, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	// off is where frame start begins in segment idx.
	type segMeta struct {
		idx, start uint64
		off        int64
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, cursor, ErrClosed
	}
	base := s.base
	head := s.frames.Load()
	liveIdx, liveSize := s.index, s.size
	var segs []segMeta
	if t := s.tails[cursor%tailRingSize]; t.frame == cursor && t.seg == liveIdx {
		segs = []segMeta{{idx: liveIdx, start: cursor, off: t.off}}
	} else {
		segs = make([]segMeta, 0, len(s.segStart))
		for idx, start := range s.segStart {
			segs = append(segs, segMeta{idx: idx, start: start})
		}
	}
	s.mu.Unlock()

	if cursor < base {
		return nil, cursor, fmt.Errorf("%w: cursor %d predates snapshot base %d", ErrCompacted, cursor, base)
	}
	if cursor >= head {
		return nil, cursor, nil
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	// Start at the newest segment whose first frame is at or before the
	// cursor; consecutive segments carry consecutive frame ranges.
	first := -1
	for i, sg := range segs {
		if sg.start <= cursor {
			first = i
		}
	}
	if first < 0 {
		return nil, cursor, fmt.Errorf("%w: cursor %d below live segments", ErrCompacted, cursor)
	}
	var out [][]byte
	next := cursor
	for i := first; i < len(segs) && next < head; i++ {
		sg := segs[i]
		end := int64(-1)
		if sg.idx == liveIdx {
			end = liveSize // never past the committed size
		}
		buf, err := readSegment(filepath.Join(s.dir, segName(sg.idx)), sg.off, end)
		if err != nil {
			// A concurrent compaction can delete the segment between the
			// metadata capture and this read; the caller falls back to a
			// snapshot bootstrap exactly as for a stale cursor.
			return nil, cursor, fmt.Errorf("%w: %v", ErrCompacted, err)
		}
		records, _, err := scanFrames(buf, segName(sg.idx), true)
		if err != nil {
			return nil, cursor, err
		}
		for j, rec := range records {
			frame := sg.start + uint64(j)
			if frame < next {
				continue // duplicate delivery guard: already consumed
			}
			if frame >= head {
				break
			}
			out = append(out, rec)
			next = frame + 1
			maxBytes -= len(rec)
			if maxBytes <= 0 {
				return out, next, nil
			}
		}
	}
	return out, next, nil
}

// readSegment returns bytes [off, end) of the segment file at path, or
// the whole file when end is negative (sealed segments are always read
// whole; only the live segment is read from an offset).
func readSegment(path string, off, end int64) ([]byte, error) {
	if end < 0 {
		return os.ReadFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, end-off)
	n, err := f.ReadAt(buf, off)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return buf[:n], nil
}

// LatestSnapshot returns the newest snapshot's frame boundary, stream
// digest, and raw caller payload — the bootstrap a follower installs
// when its cursor was compacted away. ErrNoSnapshot when the store has
// never compacted.
func (s *Store) LatestSnapshot() (framesBefore uint64, digest uint32, payload []byte, err error) {
	_, snaps, err := scanDir(s.dir)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(snaps) == 0 {
		return 0, 0, nil, ErrNoSnapshot
	}
	path := filepath.Join(s.dir, snapName(snaps[len(snaps)-1]))
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("store: opening snapshot: %w", err)
	}
	defer f.Close()
	hdr, err := readSnapHeader(f, filepath.Base(path))
	if err != nil {
		return 0, 0, nil, err
	}
	payload, err = io.ReadAll(f)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("store: reading snapshot payload: %w", err)
	}
	return hdr.FramesBefore, hdr.Digest, payload, nil
}

// InstallSnapshot adopts a snapshot received from a leader: the raw
// payload is persisted as this store's own newest snapshot with the
// leader's frame boundary and digest in its header, and the local
// cursor jumps to framesBefore. Everything the local log held before
// the boundary is released; records appended afterwards continue the
// stream exactly as on the leader. Installing a snapshot that would
// rewind the local cursor is refused — a follower is only ever behind
// the boundary, never past it.
func (s *Store) InstallSnapshot(framesBefore uint64, digest uint32, payload io.Reader) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failErr != nil {
		return fmt.Errorf("store: unavailable after earlier failure: %w", s.failErr)
	}
	if cur := s.frames.Load(); framesBefore < cur {
		return fmt.Errorf("store: snapshot at frame %d would rewind local cursor %d", framesBefore, cur)
	}
	if err := s.rotateLocked(); err != nil {
		s.fail(err)
		return s.failErr
	}
	boundary := s.index
	tmp := filepath.Join(s.dir, snapName(boundary)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot: %w", err)
	}
	if err := writeSnapHeader(f, snapHeader{FramesBefore: framesBefore, Digest: digest}); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := io.Copy(f, payload); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: writing snapshot payload: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName(boundary))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return fmt.Errorf("store: syncing directory after snapshot: %w", err)
	}
	s.base = framesBefore
	s.frames.Store(framesBefore)
	s.digest.Store(digest)
	s.segStart = map[uint64]uint64{boundary: framesBefore}
	s.ringLo = framesBefore
	s.pushDigestLocked()
	s.wakeLocked()
	segs, snaps, err := scanDir(s.dir)
	if err == nil {
		s.removeObsolete(segs, snaps, boundary)
	}
	return nil
}

// epochFile persists the leader-fencing epoch next to the segments.
const epochFile = "epoch"

// readEpoch loads the persisted epoch; a store that never had one is
// at epoch 0.
func readEpoch(dir string) (uint64, error) {
	raw, err := os.ReadFile(filepath.Join(dir, epochFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: reading epoch: %w", err)
	}
	e, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("store: parsing epoch %q: %w", raw, err)
	}
	return e, nil
}

// Epoch reports the durably adopted leader-fencing epoch.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// SetEpoch durably adopts a higher (or equal) epoch via tmp+rename, so
// the fence survives a crash: a deposed leader that restarts cannot
// un-learn that the cluster moved on. Lowering the epoch is refused.
func (s *Store) SetEpoch(e uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if cur := s.epoch.Load(); e < cur {
		return fmt.Errorf("store: epoch %d below adopted epoch %d", e, cur)
	} else if e == cur {
		return nil
	}
	tmp := filepath.Join(s.dir, epochFile+".tmp")
	if err := os.WriteFile(tmp, []byte(strconv.FormatUint(e, 10)+"\n"), 0o644); err != nil {
		return fmt.Errorf("store: writing epoch: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, epochFile)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing epoch: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return fmt.Errorf("store: syncing directory after epoch: %w", err)
	}
	s.epoch.Store(e)
	return nil
}

// EncodeFrames appends the wire encoding of records to dst — the same
// CRC32C framing the on-disk segments use, so a receiver re-verifies
// every payload byte-for-byte on receipt.
func EncodeFrames(dst []byte, records [][]byte) []byte {
	for _, rec := range records {
		dst = appendFrame(dst, rec)
	}
	return dst
}

// DecodeFrames strictly decodes a wire chunk of frames: any bad frame
// is an error (a network transfer has no torn tail to tolerate).
// Returned slices alias buf.
func DecodeFrames(buf []byte) ([][]byte, error) {
	records, good, err := scanFrames(buf, "wire", false)
	if err != nil {
		return nil, err
	}
	if good != int64(len(buf)) {
		return nil, &CorruptError{Segment: "wire", Offset: good, Reason: "trailing bytes after last frame"}
	}
	return records, nil
}
