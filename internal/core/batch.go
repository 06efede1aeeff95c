package core

import (
	"fmt"

	"expelliarmus/internal/pool"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

// PublishAll publishes a batch of images concurrently against the one
// shared repository. Options.Parallelism bounds the total worker
// goroutines: the batch fans out across images, and each image's package
// export runs sequentially inside its worker (a solo Publish instead fans
// out per package under the same bound). Like Publish, it consumes the
// images.
//
// Cross-image semantic deduplication still applies — concurrent publishes
// coordinate through the repository's atomic package store, so a package
// shared by several images in the batch is stored exactly once (whichever
// publish wins the race exports it; the others count it as skipped).
//
// The batch is not a transaction: on error, publishes that already
// committed stay in the repository. The returned slice always has one
// entry per input image, in input order; entries are nil for images whose
// publish failed or never started.
func (s *System) PublishAll(imgs []*vmi.Image) ([]*PublishReport, error) {
	reps := make([]*PublishReport, len(imgs))
	err := pool.Map(s.parallelism(), len(imgs), func(i int) error {
		rep, err := s.publish(imgs[i], 1, PublishOpts{})
		if err != nil {
			return fmt.Errorf("core: publish all [%d] %s: %w", i, imgs[i].Name, err)
		}
		reps[i] = rep
		return nil
	})
	return reps, err
}

// RetrieveAll assembles a batch of published VMIs concurrently under the
// same single Parallelism bound as PublishAll. Images and reports are
// returned in input order; on error the slices carry the successful
// entries (nil where a retrieval failed or never started). Retrieval has
// no repository side effects, so a failed batch can simply be retried.
func (s *System) RetrieveAll(names []string) ([]*vmi.Image, []*RetrieveReport, error) {
	imgs := make([]*vmi.Image, len(names))
	reps := make([]*RetrieveReport, len(names))
	err := pool.Map(s.parallelism(), len(names), func(i int) error {
		img, rep, base, err := s.retrieve(names[i], 1)
		if err == nil {
			err = detach(img, base)
		}
		if err != nil {
			return fmt.Errorf("core: retrieve all [%d] %s: %w", i, names[i], err)
		}
		imgs[i], reps[i] = img, rep
		return nil
	})
	return imgs, reps, err
}

// Snapshot serialises the repository for durable storage. It waits out any
// in-flight metadata commit (and, through the repository, any in-flight
// store operation), so the captured image is transactionally consistent:
// every VMI recorded in it is fully retrievable after Load, even when the
// snapshot is taken while concurrent traffic is running. A blob the
// backend can no longer read faithfully surfaces as an error rather than
// a corrupt snapshot.
func (s *System) Snapshot() ([]byte, error) {
	defer s.lockAllCommits()()
	return s.repo.Snapshot()
}

// Sync makes a disk-backed repository durable. Like Snapshot it waits out
// any in-flight metadata commit, so the committed state is
// transactionally consistent; unlike Snapshot it is incremental — only
// blob segments appended since the previous sync are written.
func (s *System) Sync() (vmirepo.SyncStats, error) {
	defer s.lockAllCommits()()
	return s.repo.Sync()
}

// Compact is Sync with a forced metadata-WAL compaction: the metadata
// state is rewritten as a fresh full snapshot and the log starts empty,
// bounding reopen cost. Like Sync it waits out any in-flight metadata
// commit, so the snapshot it writes is transactionally consistent even
// under concurrent traffic.
func (s *System) Compact() (vmirepo.SyncStats, error) {
	defer s.lockAllCommits()()
	return s.repo.Compact()
}

// Close syncs (when disk-backed) and releases repository resources.
func (s *System) Close() error {
	defer s.lockAllCommits()()
	return s.repo.Close()
}
