package core

import (
	"expelliarmus/internal/api"
	"expelliarmus/internal/vmirepo"
)

// Snapshot serialises the repository for durable storage. It waits out any
// in-flight metadata commit (and, through the repository, any in-flight
// store operation), so the captured image is transactionally consistent:
// every VMI recorded in it is fully retrievable after Load, even when the
// snapshot is taken while concurrent traffic is running. A blob the
// backend can no longer read faithfully surfaces as an error rather than
// a corrupt snapshot.
func (s *System) Snapshot() ([]byte, error) {
	defer s.lockCommits()()
	return s.repo.Snapshot()
}

// Sync makes a disk-backed repository durable. Like Snapshot it waits out
// any in-flight metadata commit, so the committed state is
// transactionally consistent; unlike Snapshot it is incremental — only
// blob segments appended since the previous sync are written.
func (s *System) Sync() (vmirepo.SyncStats, error) {
	defer s.lockCommits()()
	return s.repo.Sync()
}

// Compact is Sync with a forced metadata-WAL compaction: the metadata
// state is rewritten as a fresh full snapshot and the log starts empty,
// bounding reopen cost. Like Sync it waits out any in-flight metadata
// commit, so the snapshot it writes is transactionally consistent even
// under concurrent traffic.
func (s *System) Compact() (vmirepo.SyncStats, error) {
	defer s.lockCommits()()
	return s.repo.Compact()
}

// Close syncs (when disk-backed) and releases repository resources.
func (s *System) Close() error {
	defer s.lockCommits()()
	return s.repo.Close()
}

// Stats assembles the repository and cache statistics reply: the
// repository's counts and bytes, the retrieval cache's counters, the
// tenant charges and, on a disk-backed writer, its durable WAL position.
// A follower's replication section comes from its catch-up loop, which
// the server attaches.
func (s *System) Stats() api.Stats {
	st := s.repo.Stats()
	out := api.Stats{
		Packages:   st.Packages,
		Bases:      st.Bases,
		VMIs:       st.VMIs,
		TotalBytes: st.TotalBytes,
		DiskBytes:  st.BlobDiskBytes,
		DeadBytes:  st.BlobDeadBytes,
	}
	if cs, ok := s.CacheStats(); ok {
		out.CacheEnabled = true
		out.CacheHits, out.CacheMisses = cs.Hits, cs.Misses
		out.CacheEntries, out.CacheBytes = cs.Entries, cs.Bytes
	}
	if ts := s.TenantStats(); len(ts) > 0 {
		out.Tenants = ts
	}
	if wal := s.repo.WAL(); wal != nil {
		epoch, durable := wal.CommitState()
		out.Repl = &api.ReplicationStats{Role: "writer", Epoch: epoch, DurableBytes: durable}
	}
	return out
}
