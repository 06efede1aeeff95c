// Package metawal is the append-only metadata write-ahead log that makes
// a disk-backed repository's Sync O(delta) on the metadata side: instead
// of rewriting the whole metadata image on every Sync (the pre-WAL
// layout), committed mutations stream into a log and Sync is an append +
// fsync + watermark commit.
//
// Layout of a repository directory (alongside the blobs/ store):
//
//	meta.snap-00000007   full metadb snapshot at the epoch's birth
//	meta.wal-00000007    append-only op log extending that snapshot
//	meta.commit          root of trust: current epoch + durable WAL length
//
// The snapshot+log pair is versioned by an epoch. Mutations are captured
// through the metadb journal hook (Log.Record) into an in-memory pending
// buffer — deliberately not written eagerly: a metadata record must never
// be able to become durable before the blob bytes it references, so the
// caller's Sync orders blob SyncData → Log.Sync → blob release sync, and
// everything the WAL ever holds points at durable blobs. Sync frames the
// pending ops plus one commit marker into the log, fsyncs, then commits
// the watermark; the marker makes a Sync batch the unit of atomicity, so
// recovery always lands between Syncs, never inside one.
//
// Compaction — size-triggered or forced — rewrites the state
// as a fresh snapshot at the next epoch via internal/atomicfile, creates
// an empty log, atomically switches meta.commit, and only then removes
// the old pair (leftovers of a crash mid-compaction are swept on the
// next open). A crash anywhere leaves meta.commit pointing at exactly
// one complete pair. A Sync whose pending delta alone outweighs the full
// database also compacts — writing the snapshot is strictly cheaper than
// appending such a delta (a bulk load logs every intermediate master
// version; the snapshot keeps only the last) — so Sync cost is
// O(min(delta, repository)), never worse than the pre-WAL full rewrite.
//
// Open replays snapshot + log under the watermark oracle: any damage in
// the unacknowledged tail (at or beyond the durable watermark) is a crash
// artifact and is truncated back to the last commit boundary, while
// damage below the watermark, a CRC-valid record that does not decode, a
// commit that references a missing snapshot or log, or epoch files whose
// commit record is missing are refused as real corruption.
package metawal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"expelliarmus/internal/api"
	"expelliarmus/internal/atomicfile"
	"expelliarmus/internal/metadb"
)

// ErrEpochGone reports that a requested WAL epoch is no longer the
// current one — a compaction switched the log to a fresh snapshot at a
// higher epoch, and the old pair is gone. A follower tailing the log must
// restart from the new epoch's snapshot.
var ErrEpochGone = api.ErrEpochGone

// DefaultCompactBytes is the compaction trigger when Options leave it
// zero: a Sync that would grow the WAL beyond this rewrites the snapshot
// instead.
const DefaultCompactBytes = 8 << 20

// Options configure a metadata log.
type Options struct {
	// CompactBytes compacts (snapshot rewrite + fresh WAL) when a Sync
	// would grow the WAL beyond this size. Zero means DefaultCompactBytes.
	// Small values are useful in tests to force compaction churn.
	CompactBytes int64
}

// KillPoint names a crash-injection point inside Sync/Compact. Tests set
// Log.Kill to simulate a process dying at exactly that point; production
// code leaves it nil.
type KillPoint int

const (
	// KillBeforeAppend fires at Sync entry — in the repository protocol,
	// after blob SyncData and before any WAL write.
	KillBeforeAppend KillPoint = iota + 1
	// KillAfterAppend fires after the batch (ops + commit marker) is
	// appended and fsynced, before the watermark commit.
	KillAfterAppend
	// KillAfterCommit fires after the watermark commit — in the
	// repository protocol, before the blob release sync.
	KillAfterCommit
	// KillAfterSnapshot fires mid-compaction, after the next epoch's
	// snapshot is durably written and before its WAL exists.
	KillAfterSnapshot
	// KillAfterWALReset fires mid-compaction, after the next epoch's
	// empty WAL is durably created and before the commit switch.
	KillAfterWALReset
	// KillAfterCompactCommit fires after the compaction's commit switch,
	// before the old epoch's files are removed.
	KillAfterCompactCommit
)

// RecoveryReport describes what Open had to do beyond loading the
// committed snapshot.
type RecoveryReport struct {
	// Epoch is the committed epoch Open loaded.
	Epoch uint64
	// ReplayedOps counts mutations applied from the WAL on top of the
	// snapshot; ReplayedBatches counts the commit batches they arrived in.
	ReplayedOps     int
	ReplayedBatches int
	// Torn reports that a torn or uncommitted WAL tail was truncated away:
	// TornOffset is where the log now ends, DroppedBytes how much was
	// discarded, DroppedOps how many whole op records were in the
	// discarded suffix (they lacked their commit marker).
	Torn         bool
	TornOffset   int64
	DroppedBytes int64
	DroppedOps   int
	// StaleFilesRemoved counts leftover snapshot/WAL files from other
	// epochs (crashed compactions) swept on open.
	StaleFilesRemoved int
}

// Log is the metadata write-ahead log of one repository directory.
// Construct with Open; the zero value is not usable. Record may be called
// concurrently (it is the metadb journal hook); Sync, Compact and Close
// must be externally serialised against mutations, which the repository's
// operation lock already guarantees.
type Log struct {
	dir  string
	opts Options
	db   *metadb.DB

	mu         sync.Mutex
	epoch      uint64
	f          *os.File // current WAL, O_APPEND
	length     int64    // current WAL length
	durable    int64    // watermark: length covered by meta.commit
	pending    []byte   // framed op records buffered since the last Sync
	pendingOps int
	failure    error
	recovery   RecoveryReport

	// Kill is the crash-injection hook: when non-nil it runs at each
	// KillPoint, and a returned error aborts the operation exactly as a
	// crash at that point would (the error is sticky; tests Abandon and
	// reopen). Set it before any Sync/Compact and never while one runs.
	Kill func(KillPoint) error
}

// SyncStats reports one durable metadata commit.
type SyncStats struct {
	// Ops is the number of mutations committed (appended, or folded into
	// the snapshot when Compacted).
	Ops int
	// WALBytes is what the append path wrote: framed op records plus the
	// commit marker. Zero on a compacting or no-op sync.
	WALBytes int64
	// Compacted reports that this commit rewrote the state as a fresh
	// snapshot; SnapshotBytes is that snapshot's size.
	Compacted     bool
	SnapshotBytes int64
}

// Open creates or reopens the metadata log rooted at dir and returns it
// together with the replayed database. The caller wires the database to
// the log with db.SetJournal(log.Record) once its own setup (bucket
// creation) is done. Open does not lock dir — the repository's blob store
// flock already enforces one instance per directory.
func Open(dir string, opts Options) (*Log, *metadb.DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("metawal: open %s: %w", dir, err)
	}
	l := &Log{dir: dir, opts: opts}
	cimg, err := os.ReadFile(filepath.Join(dir, "meta.commit"))
	if os.IsNotExist(err) {
		if err := l.initFresh(); err != nil {
			return nil, nil, err
		}
		return l, l.db, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("metawal: read %s/meta.commit: %w", dir, err)
	}
	epoch, walLen, err := parseCommit(cimg)
	if err != nil {
		// The commit is the root of trust; guessing an epoch from leftover
		// files could resurrect a half-compacted past, so refuse.
		return nil, nil, fmt.Errorf("metawal: %s/meta.commit unreadable: %w", dir, err)
	}
	l.epoch = epoch
	l.recovery.Epoch = epoch
	if err := l.loadEpoch(walLen); err != nil {
		l.Abandon()
		return nil, nil, err
	}
	l.recovery.StaleFilesRemoved = l.cleanStale(snapName(epoch), walName(epoch))
	return l, l.db, nil
}

// initFresh initialises a directory with no commit record: a brand-new
// repository, or the leftovers of a crash during a previous first
// initialisation (no commit ever vouched for those files, so they are
// swept). Epoch files a commit must once have vouched for — any epoch
// beyond 1, a WAL with records, a non-empty snapshot — mean the root of
// trust itself was lost, and re-initialising would silently destroy the
// repository's metadata; that is refused instead.
func (l *Log) initFresh() error {
	if err := l.refuseOrphanedEpochs(); err != nil {
		return err
	}
	l.db = metadb.New()
	l.epoch = 1
	l.recovery.Epoch = 1
	l.recovery.StaleFilesRemoved = l.cleanStale("", "")
	img := l.db.Snapshot()
	if err := atomicfile.Write(filepath.Join(l.dir, snapName(1)), img); err != nil {
		return fmt.Errorf("metawal: write initial snapshot: %w", err)
	}
	f, err := l.createWAL(1)
	if err != nil {
		return err
	}
	l.f = f
	if err := l.writeCommit(1, walHeaderLen); err != nil {
		l.Abandon()
		return err
	}
	l.length, l.durable = walHeaderLen, walHeaderLen
	return nil
}

// createWAL creates (truncating any leftover) the epoch's WAL file with
// its header, durably: the file content and its directory entry are both
// fsynced before any commit record may reference them. The handle is
// returned rather than adopted — first init and compaction adopt it at
// different points of their protocols.
func (l *Log) createWAL(epoch uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(l.dir, walName(epoch)), os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("metawal: create %s: %w", walName(epoch), err)
	}
	if _, err := f.Write(walMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("metawal: write %s header: %w", walName(epoch), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("metawal: sync %s: %w", walName(epoch), err)
	}
	if err := atomicfile.SyncDir(l.dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("metawal: persist %s directory entry: %w", walName(epoch), err)
	}
	return f, nil
}

// loadEpoch loads the committed snapshot and replays the WAL tail.
func (l *Log) loadEpoch(walLen int64) error {
	snapPath := filepath.Join(l.dir, snapName(l.epoch))
	img, err := os.ReadFile(snapPath)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("metawal: commit references missing snapshot %s", snapName(l.epoch))
		}
		return err
	}
	db, err := metadb.Load(img)
	if err != nil {
		return fmt.Errorf("metawal: snapshot %s: %w", snapName(l.epoch), err)
	}
	l.db = db

	walPath := filepath.Join(l.dir, walName(l.epoch))
	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("metawal: commit references missing WAL %s", walName(l.epoch))
		}
		return err
	}
	l.f = f
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	if size < walLen {
		return fmt.Errorf("metawal: %s is %d bytes, shorter than the synced watermark %d — durably committed operations are gone",
			walName(l.epoch), size, walLen)
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		return fmt.Errorf("metawal: read %s: %w", walName(l.epoch), err)
	}
	if string(data[:walHeaderLen]) != string(walMagic) {
		return fmt.Errorf("metawal: %s has bad magic", walName(l.epoch))
	}
	return l.replay(data, walLen, size)
}

// replay applies the WAL's committed batches to the database. Any damage
// at or beyond the durable watermark — torn mid-record, whole records
// missing their marker, or a partially persisted batch with intact
// records after the damage — is the signature of a crash mid-Sync and is
// truncated back to the last commit boundary, while damage below the
// watermark is refused as corruption of acknowledged history.
func (l *Log) replay(data []byte, walLen, size int64) error {
	lastCommitEnd := walHeaderLen
	watermarkOnBoundary := walLen == walHeaderLen
	tail, err := scanBatches(data, int(walHeaderLen), func(batch []metadb.Op, end int) {
		for _, op := range batch {
			applyOp(l.db, op)
		}
		l.recovery.ReplayedOps += len(batch)
		l.recovery.ReplayedBatches++
		lastCommitEnd = int64(end)
		if lastCommitEnd == walLen {
			watermarkOnBoundary = true
		}
	})
	if err != nil {
		return fmt.Errorf("metawal: %s %w", walName(l.epoch), err)
	}
	if tail.frameErr != nil && int64(tail.off) < walLen {
		// Below the durable watermark every byte was acknowledged to a Sync
		// caller; ANY damage there — torn-looking or not — is real
		// corruption of committed history, never a crash artifact, and must
		// be refused rather than truncated. Damage in the unacknowledged
		// tail is a crash artifact — including a later record that still
		// parses (a multi-page batch whose pages were written back out of
		// order before the fsync completed): nothing at or beyond the
		// watermark was ever acknowledged, so rolling back to the last
		// commit boundary is exactly the rollback Sync already promises.
		return fmt.Errorf("metawal: %s offset %d: %w below the durable watermark %d — refusing to truncate committed data",
			walName(l.epoch), tail.off, tail.frameErr, walLen)
	}
	if !watermarkOnBoundary {
		return fmt.Errorf("metawal: %s durable watermark %d does not land on a commit boundary", walName(l.epoch), walLen)
	}
	if lastCommitEnd < size {
		// Torn or uncommitted tail: a crash mid-Sync. Discard the whole
		// partial batch so recovery lands between Syncs, never inside one.
		if err := l.f.Truncate(lastCommitEnd); err != nil {
			return fmt.Errorf("metawal: truncate torn %s: %w", walName(l.epoch), err)
		}
		l.recovery.Torn = true
		l.recovery.TornOffset = lastCommitEnd
		l.recovery.DroppedBytes = size - lastCommitEnd
		l.recovery.DroppedOps = tail.openOps
		size = lastCommitEnd
	}
	l.length = size
	l.durable = walLen
	return nil
}

// refuseOrphanedEpochs decides whether epoch files found with no
// meta.commit are sweepable first-init leftovers or proof that a once-
// committed repository lost its root of trust (an errant rm, a partial
// backup restore, directory-entry loss). The distinction is exact:
//
//   - A crashed first initialisation can only ever leave epoch-1 files,
//     with a record-free WAL (records are appended only by Sync, which
//     requires the commit to exist) and an empty snapshot.
//   - Anything else — a higher epoch, WAL records, a non-empty snapshot —
//     can only exist after a commit was durably written, so its absence
//     is data loss, not a fresh directory, and silently re-initialising
//     would destroy the repository's metadata.
func (l *Log) refuseOrphanedEpochs() error {
	refuse := func(evidence string) error {
		return fmt.Errorf("metawal: %s exists but %s/meta.commit is missing — the root of trust of a committed repository is gone; restore meta.commit from backup, or delete the meta.snap-*/meta.wal-* files if this directory is really meant to start empty", evidence, l.dir)
	}
	des, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, de := range des {
		name := de.Name()
		var epoch uint64
		switch {
		case parseEpochName(name, "meta.snap-%08d", &epoch):
			if epoch != 1 {
				return refuse(name)
			}
			img, err := os.ReadFile(filepath.Join(l.dir, name))
			if err != nil {
				return err
			}
			snap, err := metadb.Load(img)
			if err != nil || len(snap.Buckets()) > 0 {
				return refuse(name + " (non-empty snapshot)")
			}
		case parseEpochName(name, "meta.wal-%08d", &epoch):
			if epoch != 1 {
				return refuse(name)
			}
			fi, err := de.Info()
			if err != nil {
				return err
			}
			if fi.Size() > walHeaderLen {
				return refuse(name + " (WAL holds records)")
			}
		}
	}
	return nil
}

// parseEpochName matches an exact epoch-numbered file name.
func parseEpochName(name, format string, epoch *uint64) bool {
	if _, err := fmt.Sscanf(name, format, epoch); err != nil {
		return false
	}
	// Sscanf tolerates trailing characters; require the exact round trip
	// so meta.snap-00000001.tmp is not mistaken for the snapshot itself.
	return name == fmt.Sprintf(format, *epoch)
}

// cleanStale removes snapshot/WAL files (and their atomicfile leftovers)
// that the commit record does not vouch for — inert debris of a crashed
// compaction or first init. Returns how many files were removed.
func (l *Log) cleanStale(keepSnap, keepWAL string) int {
	des, err := os.ReadDir(l.dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, de := range des {
		name := de.Name()
		if !strings.HasPrefix(name, "meta.snap-") && !strings.HasPrefix(name, "meta.wal-") {
			continue
		}
		if name == keepSnap || name == keepWAL {
			continue
		}
		if os.Remove(filepath.Join(l.dir, name)) == nil {
			removed++
		}
	}
	return removed
}

// Record is the metadb journal hook: it frames the op into the pending
// buffer, to be committed by the next Sync. Safe for concurrent use. The
// caller holds its bucket lock, so framing (varint encoding + CRC over
// the whole value) happens before taking the log mutex — writers on
// different buckets contend only on the final buffer append, not on each
// other's encoding work.
func (l *Log) Record(op metadb.Op) {
	rec := appendOp(nil, op)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failure != nil {
		// The log is poisoned; Sync will refuse anyway, so buffering more
		// ops would only grow memory for a store that can never commit.
		return
	}
	l.pending = append(l.pending, rec...)
	l.pendingOps++
}

// Epoch returns the current snapshot epoch.
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// Bytes returns the current WAL length; DurableBytes how far the
// committed watermark extends.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.length
}

// DurableBytes returns the committed watermark.
func (l *Log) DurableBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Recovery returns what Open had to recover.
func (l *Log) Recovery() RecoveryReport { return l.recovery }

// Err returns the log's sticky failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failure
}

// fail records the first failure; the log refuses further commits.
func (l *Log) fail(err error) error {
	if l.failure == nil {
		l.failure = err
	}
	return err
}

// kill runs the crash-injection hook at point p.
func (l *Log) kill(p KillPoint) error {
	if l.Kill == nil {
		return nil
	}
	if err := l.Kill(p); err != nil {
		return l.fail(err)
	}
	return nil
}

// Sync durably commits all ops recorded since the previous Sync: append
// the batch plus its commit marker, fsync, then atomically advance the
// watermark. When the WAL would outgrow Options.CompactBytes, the commit
// compacts instead. In the repository's two-phase protocol this runs
// strictly after blob SyncData, so every op the WAL ever holds references
// durable blob bytes.
func (l *Log) Sync() (SyncStats, error) { return l.sync(false) }

// Compact forces the commit to rewrite the state as a fresh snapshot at
// the next epoch with an empty WAL, regardless of size. Pending ops are
// folded into the snapshot.
func (l *Log) Compact() (SyncStats, error) { return l.sync(true) }

func (l *Log) sync(force bool) (SyncStats, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var st SyncStats
	if l.failure != nil {
		return st, l.failure
	}
	if err := l.kill(KillBeforeAppend); err != nil {
		return st, err
	}
	if !force && l.pendingOps == 0 && l.durable == l.length {
		// Nothing to commit and the watermark is current: the identical
		// commit record does not need to be re-written and re-fsynced.
		return st, nil
	}
	compactBytes := l.opts.CompactBytes
	if compactBytes <= 0 {
		compactBytes = DefaultCompactBytes
	}
	if force ||
		l.length+int64(len(l.pending)) > compactBytes ||
		int64(len(l.pending)) > l.db.SizeBytes() {
		return l.compactLocked(st)
	}
	var batch []byte
	if l.pendingOps > 0 {
		batch = appendRecord(l.pending, recCommit, encodeUvarint(l.pendingOps))
		if _, err := l.f.Write(batch); err != nil {
			return st, l.fail(fmt.Errorf("metawal: append to %s: %w", walName(l.epoch), err))
		}
		l.length += int64(len(batch))
	}
	if l.length > l.durable {
		if err := l.f.Sync(); err != nil {
			return st, l.fail(fmt.Errorf("metawal: sync %s: %w", walName(l.epoch), err))
		}
	}
	if err := l.kill(KillAfterAppend); err != nil {
		return st, err
	}
	if err := l.writeCommit(l.epoch, l.length); err != nil {
		return st, err
	}
	if err := l.kill(KillAfterCommit); err != nil {
		return st, err
	}
	st.Ops = l.pendingOps
	st.WALBytes = int64(len(batch))
	l.durable = l.length
	l.pending, l.pendingOps = nil, 0
	return st, nil
}

// compactLocked rewrites the state as a fresh snapshot at the next epoch.
// Ordering: the new snapshot and the new empty WAL are durable before the
// commit switches to them, and the old pair is removed only after the
// switch — every crash window reopens to exactly one complete epoch.
func (l *Log) compactLocked(st SyncStats) (SyncStats, error) {
	img := l.db.Snapshot()
	next := l.epoch + 1
	if err := atomicfile.Write(filepath.Join(l.dir, snapName(next)), img); err != nil {
		return st, l.fail(fmt.Errorf("metawal: write snapshot %s: %w", snapName(next), err))
	}
	if err := l.kill(KillAfterSnapshot); err != nil {
		return st, err
	}
	f, err := l.createWAL(next)
	if err != nil {
		return st, l.fail(err)
	}
	if err := l.kill(KillAfterWALReset); err != nil {
		f.Close()
		return st, err
	}
	if err := l.writeCommit(next, walHeaderLen); err != nil {
		f.Close()
		return st, err
	}
	if err := l.kill(KillAfterCompactCommit); err != nil {
		f.Close()
		return st, err
	}
	// The switch is durable; adopt the new epoch and sweep the old pair
	// (best-effort — a leftover is inert and cleaned on the next open).
	l.f.Close()
	os.Remove(filepath.Join(l.dir, snapName(l.epoch)))
	os.Remove(filepath.Join(l.dir, walName(l.epoch)))
	l.f = f
	l.epoch = next
	l.length, l.durable = walHeaderLen, walHeaderLen
	st.Ops = l.pendingOps
	st.Compacted = true
	st.SnapshotBytes = int64(len(img))
	l.pending, l.pendingOps = nil, 0
	return st, nil
}

// writeCommit atomically replaces meta.commit.
func (l *Log) writeCommit(epoch uint64, walLen int64) error {
	if err := atomicfile.Write(filepath.Join(l.dir, "meta.commit"), encodeCommit(epoch, walLen)); err != nil {
		return l.fail(fmt.Errorf("metawal: commit watermark: %w", err))
	}
	return nil
}

// CommitState returns the current epoch and its durable watermark as one
// consistent pair — the writer-side coordinates a follower polls to
// decide whether to fetch more WAL tail or restart from a new snapshot.
func (l *Log) CommitState() (epoch uint64, durable int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch, l.durable
}

// SnapshotReader opens the current epoch's snapshot for streaming and
// returns the epoch it belongs to alongside the exact byte size. Snapshot
// files are written once at their epoch's birth and never modified, so
// the stream stays valid after the lock is released — even across a
// concurrent compaction, which unlinks the file but cannot disturb an
// open handle. The caller must Close the reader.
func (l *Log) SnapshotReader() (epoch uint64, rc io.ReadCloser, size int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Open(filepath.Join(l.dir, snapName(l.epoch)))
	if err != nil {
		return 0, nil, 0, fmt.Errorf("metawal: open snapshot %s: %w", snapName(l.epoch), err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, nil, 0, fmt.Errorf("metawal: stat %s: %w", snapName(l.epoch), err)
	}
	return l.epoch, f, fi.Size(), nil
}

// WALReader opens the durable WAL tail [from, DurableBytes) of the given
// epoch for streaming, returning the reader and the byte count it will
// deliver. The range is stable after the lock is released: within an
// epoch the WAL is append-only past open-time recovery, nothing at or
// below the durable watermark is ever rewritten, and a compaction that
// retires the epoch unlinks the file without disturbing the open handle.
// Requesting an epoch the log has compacted away returns ErrEpochGone
// (restart from SnapshotReader); an offset outside [header, durable] is
// the caller's bug. The caller must Close the reader.
func (l *Log) WALReader(epoch uint64, from int64) (io.ReadCloser, int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch != l.epoch {
		return nil, 0, fmt.Errorf("%w: epoch %d requested, current is %d", ErrEpochGone, epoch, l.epoch)
	}
	if from < walHeaderLen || from > l.durable {
		return nil, 0, fmt.Errorf("metawal: WAL offset %d outside the durable range [%d, %d]", from, walHeaderLen, l.durable)
	}
	f, err := os.Open(filepath.Join(l.dir, walName(epoch)))
	if err != nil {
		return nil, 0, fmt.Errorf("metawal: open %s: %w", walName(epoch), err)
	}
	n := l.durable - from
	return &sectionReadCloser{r: io.NewSectionReader(f, from, n), f: f}, n, nil
}

// sectionReadCloser couples a SectionReader over the durable WAL range
// with the file handle backing it.
type sectionReadCloser struct {
	r *io.SectionReader
	f *os.File
}

func (s *sectionReadCloser) Read(p []byte) (int, error) { return s.r.Read(p) }
func (s *sectionReadCloser) Close() error               { return s.f.Close() }

// Close commits any pending ops (a no-op when the caller already synced)
// and releases the WAL file handle. The log is unusable after.
func (l *Log) Close() error {
	_, err := l.sync(false)
	if aerr := l.Abandon(); err == nil {
		err = aerr
	}
	return err
}

// Abandon releases the file handle WITHOUT committing anything — the log
// simply stops, exactly as a crashed process would. Crash-recovery tests
// reopen the directory afterwards; production code wants Close.
func (l *Log) Abandon() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
