package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFramesAndDigestAdvance(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{}, nil, nil)
	if s.Frames() != 0 || s.StreamDigest() != 0 {
		t.Fatalf("fresh store frames=%d digest=%08x, want zeros", s.Frames(), s.StreamDigest())
	}
	appendAll(t, s, "alpha", "beta", "gamma")
	if s.Frames() != 3 {
		t.Fatalf("frames = %d, want 3", s.Frames())
	}
	digest := s.StreamDigest()
	if digest == 0 {
		t.Fatal("digest still zero after appends")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the cursor and chained digest are rebuilt from the log.
	s2, _ := open(t, dir, Options{}, nil, nil)
	defer s2.Close()
	if s2.Frames() != 3 || s2.StreamDigest() != digest {
		t.Fatalf("reopened frames=%d digest=%08x, want 3/%08x", s2.Frames(), s2.StreamDigest(), digest)
	}
}

func TestDigestAtHistory(t *testing.T) {
	s, _ := open(t, t.TempDir(), Options{}, nil, nil)
	defer s.Close()
	if d, ok := s.DigestAt(0); !ok || d != 0 {
		t.Fatalf("DigestAt(0) = %08x,%v, want 0,true", d, ok)
	}
	var want []uint32
	for i := 0; i < 5; i++ {
		appendAll(t, s, fmt.Sprintf("rec-%d", i))
		want = append(want, s.StreamDigest())
	}
	for i, w := range want {
		got, ok := s.DigestAt(uint64(i + 1))
		if !ok || got != w {
			t.Fatalf("DigestAt(%d) = %08x,%v, want %08x,true", i+1, got, ok, w)
		}
	}
	if _, ok := s.DigestAt(99); ok {
		t.Fatal("DigestAt past the head reported an observation")
	}
}

func TestDigestAtAcrossOpenAndInstall(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{}, nil, nil)
	appendAll(t, s, "a", "b", "c")
	atThree := s.StreamDigest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopened: the head at Open is observed, earlier cursors never were.
	s, _ = open(t, dir, Options{}, nil, nil)
	defer s.Close()
	if d, ok := s.DigestAt(3); !ok || d != atThree {
		t.Fatalf("DigestAt(Open's head) = %08x,%v, want %08x,true", d, ok, atThree)
	}
	for _, f := range []uint64{1, 2} {
		if _, ok := s.DigestAt(f); ok {
			t.Fatalf("DigestAt(%d) before Open's head reported an observation", f)
		}
	}
	appendAll(t, s, "d")
	if d, ok := s.DigestAt(4); !ok || d != s.StreamDigest() {
		t.Fatalf("DigestAt(4) = %08x,%v, want %08x,true", d, ok, s.StreamDigest())
	}

	// An install jumps the cursor: only the boundary and what follows
	// it were observed.
	if err := s.InstallSnapshot(10, 0xfeed, strings.NewReader("state")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "k")
	if d, ok := s.DigestAt(10); !ok || d != 0xfeed {
		t.Fatalf("DigestAt(install boundary) = %08x,%v, want feed,true", d, ok)
	}
	if d, ok := s.DigestAt(11); !ok || d != s.StreamDigest() {
		t.Fatalf("DigestAt(11) = %08x,%v, want %08x,true", d, ok, s.StreamDigest())
	}
	for _, f := range []uint64{3, 4, 5, 9, 12} {
		if _, ok := s.DigestAt(f); ok {
			t.Fatalf("DigestAt(%d) across the install reported an observation", f)
		}
	}
}

func TestDigestAtAgesOut(t *testing.T) {
	s, _ := open(t, t.TempDir(), Options{Policy: FsyncNever}, nil, nil)
	defer s.Close()
	digests := make([]uint32, digestRingSize+3)
	for i := 1; i < len(digests); i++ {
		appendAll(t, s, fmt.Sprintf("r%d", i))
		digests[i] = s.StreamDigest()
	}
	head := uint64(len(digests) - 1)
	for f := uint64(1); f <= head; f++ {
		d, ok := s.DigestAt(f)
		if wantOK := head-f < digestRingSize; ok != wantOK || (ok && d != digests[f]) {
			t.Fatalf("DigestAt(%d) at head %d = %08x,%v, want %08x,%v", f, head, d, ok, digests[f], wantOK)
		}
	}
}

func TestReadFromTailsAcrossRotation(t *testing.T) {
	// Tiny segments force rotation every record or two.
	s, _ := open(t, t.TempDir(), Options{SegmentBytes: 32}, nil, nil)
	defer s.Close()
	var want []string
	for i := 0; i < 9; i++ {
		rec := fmt.Sprintf("record-%02d", i)
		want = append(want, rec)
		appendAll(t, s, rec)
	}

	// Full scan from zero.
	recs, next, err := s.ReadFrom(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if next != 9 || len(recs) != 9 {
		t.Fatalf("ReadFrom(0) = %d recs next %d, want 9/9", len(recs), next)
	}
	for i, rec := range recs {
		if string(rec) != want[i] {
			t.Fatalf("frame %d = %q, want %q", i, rec, want[i])
		}
	}

	// Mid-stream cursor lands on the right suffix.
	recs, next, err = s.ReadFrom(4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if next != 9 || len(recs) != 5 || string(recs[0]) != want[4] {
		t.Fatalf("ReadFrom(4) = %d recs next %d first %q", len(recs), next, recs[0])
	}

	// maxBytes chunks the batch but always makes progress.
	recs, next, err = s.ReadFrom(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || next != 1 {
		t.Fatalf("ReadFrom(0, 1 byte) = %d recs next %d, want 1/1", len(recs), next)
	}

	// Caught up: empty batch, cursor unchanged.
	recs, next, err = s.ReadFrom(9, 1<<20)
	if err != nil || len(recs) != 0 || next != 9 {
		t.Fatalf("ReadFrom(head) = %d recs next %d err %v", len(recs), next, err)
	}
}

func TestReadFromCompactedCursor(t *testing.T) {
	s, _ := open(t, t.TempDir(), Options{}, nil, nil)
	defer s.Close()
	appendAll(t, s, "a", "b", "c")
	if err := s.Snapshot(func(w io.Writer) error {
		_, err := w.Write([]byte(`{"state":"compacted"}`))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "d")
	if _, _, err := s.ReadFrom(1, 1<<20); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReadFrom below snapshot base: %v, want ErrCompacted", err)
	}
	recs, next, err := s.ReadFrom(3, 1<<20)
	if err != nil || len(recs) != 1 || string(recs[0]) != "d" || next != 4 {
		t.Fatalf("ReadFrom(base) = %v/%d err %v, want the post-snapshot tail", recs, next, err)
	}
}

func TestLatestSnapshotAndInstall(t *testing.T) {
	leaderDir := t.TempDir()
	leader, _ := open(t, leaderDir, Options{}, nil, nil)
	defer leader.Close()
	appendAll(t, leader, "one", "two", "three")
	wantDigest := leader.StreamDigest()
	if err := leader.Snapshot(func(w io.Writer) error {
		_, err := w.Write([]byte(`{"rows":3}`))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	framesBefore, digest, payload, err := leader.LatestSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if framesBefore != 3 || digest != wantDigest || string(payload) != `{"rows":3}` {
		t.Fatalf("LatestSnapshot = %d/%08x/%q, want 3/%08x", framesBefore, digest, payload, wantDigest)
	}

	// A fresh follower installs it and continues the stream in lockstep.
	var gotSnap []byte
	followerDir := t.TempDir()
	follower, _ := open(t, followerDir, Options{}, nil, &gotSnap)
	if err := follower.InstallSnapshot(framesBefore, digest, bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	if follower.Frames() != 3 || follower.StreamDigest() != wantDigest {
		t.Fatalf("post-install frames=%d digest=%08x, want 3/%08x",
			follower.Frames(), follower.StreamDigest(), wantDigest)
	}
	appendAll(t, leader, "four")
	appendAll(t, follower, "four")
	if follower.StreamDigest() != leader.StreamDigest() || follower.Frames() != leader.Frames() {
		t.Fatalf("post-tail divergence: follower %d/%08x leader %d/%08x",
			follower.Frames(), follower.StreamDigest(), leader.Frames(), leader.StreamDigest())
	}

	// Rewinding installs are refused.
	if err := follower.InstallSnapshot(1, 0, strings.NewReader("x")); err == nil {
		t.Fatal("InstallSnapshot accepted a cursor rewind")
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// The installed snapshot is the follower's own recovery source.
	follower2, stats := open(t, followerDir, Options{}, nil, &gotSnap)
	defer follower2.Close()
	if !stats.SnapshotLoaded || follower2.Frames() != 4 || follower2.StreamDigest() != leader.StreamDigest() {
		t.Fatalf("reopened follower stats=%+v frames=%d digest=%08x", stats, follower2.Frames(), follower2.StreamDigest())
	}
	if !bytes.Contains(gotSnap, []byte(`"rows":3`)) {
		t.Fatalf("recovery saw snapshot payload %q, want the leader's body", gotSnap)
	}
}

func TestEpochPersistsAndRefusesRegression(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{}, nil, nil)
	if s.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d, want 0", s.Epoch())
	}
	if err := s.SetEpoch(3); err != nil {
		t.Fatal(err)
	}
	if err := s.SetEpoch(3); err != nil {
		t.Fatalf("idempotent SetEpoch: %v", err)
	}
	if err := s.SetEpoch(2); err == nil {
		t.Fatal("SetEpoch accepted a regression")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := open(t, dir, Options{}, nil, nil)
	defer s2.Close()
	if s2.Epoch() != 3 {
		t.Fatalf("reopened epoch = %d, want 3 (fence must survive restart)", s2.Epoch())
	}
}

func TestEncodeDecodeFramesRoundTrip(t *testing.T) {
	records := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	wire := EncodeFrames(nil, records)
	got, err := DecodeFrames(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("decoded %d records, want %d", len(got), len(records))
	}
	for i := range records {
		if !bytes.Equal(got[i], records[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], records[i])
		}
	}

	// A flipped payload byte and trailing garbage are both rejected.
	bad := append([]byte(nil), wire...)
	bad[len(bad)-1] ^= 1
	if _, err := DecodeFrames(bad); err == nil {
		t.Fatal("DecodeFrames accepted a corrupt payload")
	}
	if _, err := DecodeFrames(append(wire, 0x7)); err == nil {
		t.Fatal("DecodeFrames accepted trailing bytes")
	}
}

// waitFrames runs WaitFrames on its own goroutine. It returns once the
// waiter is parked on s.waitCh (so a later wake-up is caused by what
// the test does next), with the channel it parked on and the channel
// its result arrives on.
func waitFrames(t *testing.T, ctx context.Context, s *Store, cursor uint64) (parked chan struct{}, res <-chan error) {
	t.Helper()
	out := make(chan error, 1)
	go func() { out <- s.WaitFrames(ctx, cursor) }()
	for {
		s.mu.Lock()
		ch := s.waitCh
		s.mu.Unlock()
		if ch != nil {
			return ch, out
		}
		select {
		case err := <-out:
			t.Fatalf("WaitFrames(%d) returned %v before anything committed", cursor, err)
		default:
		}
		time.Sleep(time.Millisecond)
	}
}

// stillWaiting fails the test if the waiter returned or was woken.
func stillWaiting(t *testing.T, parked chan struct{}, res <-chan error, after string) {
	t.Helper()
	select {
	case err := <-res:
		t.Fatalf("WaitFrames returned %v after %s", err, after)
	case <-parked:
		t.Fatalf("WaitFrames was woken by %s", after)
	default:
	}
}

// waitCtx bounds a test's waits, so a missed wake-up fails the test
// with context.DeadlineExceeded instead of hanging it.
func waitCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func TestWaitFramesWakesOnCommit(t *testing.T) {
	t.Run("append", func(t *testing.T) {
		ctx := waitCtx(t)
		s, _ := open(t, t.TempDir(), Options{}, nil, nil)
		defer s.Close()
		appendAll(t, s, "a")
		if err := s.WaitFrames(ctx, 0); err != nil {
			t.Fatalf("WaitFrames below the head = %v, want nil at once", err)
		}
		parked, res := waitFrames(t, ctx, s, 1)
		stillWaiting(t, parked, res, "parking")
		appendAll(t, s, "b")
		if err := <-res; err != nil {
			t.Fatalf("WaitFrames after append = %v, want nil", err)
		}
	})
	t.Run("install", func(t *testing.T) {
		s, _ := open(t, t.TempDir(), Options{}, nil, nil)
		defer s.Close()
		_, res := waitFrames(t, waitCtx(t), s, 0)
		if err := s.InstallSnapshot(5, 0, strings.NewReader("state")); err != nil {
			t.Fatal(err)
		}
		if err := <-res; err != nil {
			t.Fatalf("WaitFrames after install = %v, want nil", err)
		}
	})
	t.Run("close", func(t *testing.T) {
		s, _ := open(t, t.TempDir(), Options{}, nil, nil)
		_, res := waitFrames(t, waitCtx(t), s, 0)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-res; !errors.Is(err, ErrClosed) {
			t.Fatalf("WaitFrames after Close = %v, want ErrClosed", err)
		}
		if err := s.WaitFrames(context.Background(), 0); !errors.Is(err, ErrClosed) {
			t.Fatalf("WaitFrames on a closed store = %v, want ErrClosed", err)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		s, _ := open(t, t.TempDir(), Options{}, nil, nil)
		defer s.Close()
		ctx, cancel := context.WithCancel(waitCtx(t))
		_, res := waitFrames(t, ctx, s, 0)
		cancel()
		if err := <-res; !errors.Is(err, context.Canceled) {
			t.Fatalf("WaitFrames after cancel = %v, want context.Canceled", err)
		}
	})
}

func TestWaitFramesIgnoresFailedAppends(t *testing.T) {
	injected := errors.New("injected")
	t.Run("fsync-err", func(t *testing.T) {
		failSync := true
		s, _ := open(t, t.TempDir(), Options{Faults: &Faults{Sync: func() error {
			if failSync {
				return injected
			}
			return nil
		}}}, nil, nil)
		defer s.Close()
		parked, res := waitFrames(t, waitCtx(t), s, 0)
		if err := s.Append([]byte("scrubbed")); !errors.Is(err, injected) {
			t.Fatalf("append = %v, want the injected fsync error", err)
		}
		stillWaiting(t, parked, res, "a scrubbed append")
		failSync = false
		appendAll(t, s, "kept")
		if err := <-res; err != nil {
			t.Fatalf("WaitFrames after the next good append = %v, want nil", err)
		}
	})
	t.Run("torn", func(t *testing.T) {
		s, _ := open(t, t.TempDir(), Options{Faults: &Faults{Write: func(frame []byte) (int, error) {
			return len(frame) / 2, injected
		}}}, nil, nil)
		parked, res := waitFrames(t, waitCtx(t), s, 0)
		if err := s.Append([]byte("torn record")); !errors.Is(err, injected) {
			t.Fatalf("append = %v, want the injected tear", err)
		}
		stillWaiting(t, parked, res, "a torn append")
		s.Close()
		if err := <-res; !errors.Is(err, ErrClosed) {
			t.Fatalf("WaitFrames after Close = %v, want ErrClosed", err)
		}
	})
}

// TestWaitFramesConcurrentAppenders checks for lost wake-ups: waiters
// that step through every cursor must all reach the head while eight
// goroutines append at once. A lost wake-up leaves a waiter parked
// until the context deadline.
func TestWaitFramesConcurrentAppenders(t *testing.T) {
	const appenders, perAppender, waiters = 8, 40, 4
	const total = appenders * perAppender
	s, _ := open(t, t.TempDir(), Options{Policy: FsyncNever}, nil, nil)
	defer s.Close()
	ctx := waitCtx(t)

	var wg sync.WaitGroup
	errs := make(chan error, appenders+waiters)
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cursor := uint64(0); cursor < total; cursor++ {
				if err := s.WaitFrames(ctx, cursor); err != nil {
					errs <- fmt.Errorf("waiter stuck at cursor %d of %d: %w", cursor, total, err)
					return
				}
			}
		}()
	}
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				if err := s.Append([]byte(fmt.Sprintf("appender-%d-%d", a, i))); err != nil {
					errs <- err
					return
				}
			}
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s.Frames() != total {
		t.Fatalf("frames = %d, want %d", s.Frames(), total)
	}
}

// fullRead is ReadFrom with the tail-offset ring hidden, so every
// cursor scans its segments from the start: the reference the hinted
// reads must match.
func fullRead(s *Store, cursor uint64, maxBytes int) ([][]byte, uint64, error) {
	s.mu.Lock()
	saved := s.tails
	s.tails = [tailRingSize]tailPos{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.tails = saved
		s.mu.Unlock()
	}()
	return s.ReadFrom(cursor, maxBytes)
}

// hinted reports whether ReadFrom(cursor) takes the offset path.
func hinted(s *Store, cursor uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tails[cursor%tailRingSize]
	return t.frame == cursor && t.seg == s.index
}

// TestReadFromHintMatchesFullScan is the property test for the
// tail-offset ring: at every cursor from the snapshot base to the head,
// and for chunk sizes down to one byte, the offset-hinted ReadFrom
// returns exactly the records and next cursor of a full segment scan.
func TestReadFromHintMatchesFullScan(t *testing.T) {
	injected := errors.New("injected fsync")
	rec := func(i int) []byte { return []byte(strings.Repeat(fmt.Sprintf("r%d.", i), 1+i%5)) }
	cases := []struct {
		name string
		o    Options
		// build appends to s, reporting after each append whether the
		// next fsync should fail.
		build func(t *testing.T, s *Store, failSync *bool)
	}{
		{"rotation", Options{SegmentBytes: 96}, func(t *testing.T, s *Store, _ *bool) {
			for i := 0; i < 150; i++ {
				appendAll(t, s, string(rec(i)))
			}
			// End with frames in the live segment, where hints apply.
			for s.Frames()-s.segStart[s.index] < 2 {
				appendAll(t, s, "tail")
			}
		}},
		{"compaction", Options{SegmentBytes: 4096}, func(t *testing.T, s *Store, _ *bool) {
			for i := 0; i < 40; i++ {
				appendAll(t, s, string(rec(i)))
			}
			if err := s.Snapshot(func(w io.Writer) error { _, err := w.Write([]byte("state")); return err }); err != nil {
				t.Fatal(err)
			}
			for i := 40; i < 120; i++ {
				appendAll(t, s, string(rec(i)))
			}
		}},
		{"install", Options{}, func(t *testing.T, s *Store, _ *bool) {
			appendAll(t, s, "pre-install")
			if err := s.InstallSnapshot(1000, 7, strings.NewReader("state")); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				appendAll(t, s, string(rec(i)))
			}
		}},
		{"scrubbed-fsync", Options{}, func(t *testing.T, s *Store, failSync *bool) {
			for i := 0; i < 100; i++ {
				if i%7 == 3 {
					*failSync = true
					if err := s.Append([]byte(fmt.Sprintf("scrubbed-%d", i))); !errors.Is(err, injected) {
						t.Fatalf("append under fsync fault = %v, want injected", err)
					}
					*failSync = false
				}
				appendAll(t, s, string(rec(i)))
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			failSync := false
			o := tc.o
			o.Faults = &Faults{Sync: func() error {
				if failSync {
					return injected
				}
				return nil
			}}
			s, _ := open(t, t.TempDir(), o, nil, nil)
			defer s.Close()
			tc.build(t, s, &failSync)
			s.mu.Lock()
			base := s.base
			s.mu.Unlock()
			head := s.Frames()
			hints := 0
			for cursor := base; cursor <= head; cursor++ {
				if hinted(s, cursor) {
					hints++
				}
				for _, maxBytes := range []int{1, 10, 64, 1 << 20} {
					want, wantNext, wantErr := fullRead(s, cursor, maxBytes)
					got, next, err := s.ReadFrom(cursor, maxBytes)
					if err != nil || wantErr != nil {
						t.Fatalf("ReadFrom(%d, %d): err %v, full scan err %v", cursor, maxBytes, err, wantErr)
					}
					if next != wantNext || len(got) != len(want) {
						t.Fatalf("ReadFrom(%d, %d) = %d records next %d, full scan %d records next %d",
							cursor, maxBytes, len(got), next, len(want), wantNext)
					}
					for i := range want {
						if !bytes.Equal(got[i], want[i]) {
							t.Fatalf("ReadFrom(%d, %d) record %d = %q, full scan %q", cursor, maxBytes, i, got[i], want[i])
						}
					}
				}
			}
			if hints == 0 {
				t.Fatal("no cursor took the offset-hinted path")
			}
		})
	}
}
