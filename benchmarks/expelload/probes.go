package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/blobstore/diskstore"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/core"
	"expelliarmus/internal/metadb"
	"expelliarmus/internal/metawal"
	"expelliarmus/internal/retrievecache"
	"expelliarmus/internal/vmirepo"
	"expelliarmus/internal/wire"
)

// Probes time one layer's public functions directly, with inputs taken
// from the run: the inputs' heaviest image, the blobs of the store the L1
// rung left behind, the WAL a real publish wrote. Each reports the median
// of a few repetitions. They run after a rung's window, never inside one.

const (
	probeReps      = 5
	probeReadAts   = 2000
	probeReadAtLen = 256
)

// timeMs runs fn reps times and returns each run's duration in ms.
func timeMs(reps int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0))/1e6)
	}
	return out, nil
}

// mbPerS converts a per-repetition duration into MB/s for n bytes.
func mbPerS(n int64, ms []float64) float64 { return ratio(float64(n)/1e6, median(ms)/1e3) }

// codecProbes time the layers that only transform bytes — vdisk
// serialization, the wire envelope, the retrieval cache — on the inputs'
// probe image.
func codecProbes(in *inputs) ([]metric, error) {
	img := in.probe
	size := img.Disk.SerializedBytes()

	ser, err := timeMs(probeReps, func(int) error { _, err := img.Disk.WriteTo(io.Discard); return err })
	if err != nil {
		return nil, fmt.Errorf("probe vdisk: %w", err)
	}
	enc, err := timeMs(probeReps, func(int) error { return wire.WriteImage(io.Discard, img) })
	if err != nil {
		return nil, fmt.Errorf("probe wire encode: %w", err)
	}
	var env bytes.Buffer
	if err := wire.WriteImage(&env, img); err != nil {
		return nil, fmt.Errorf("probe wire encode: %w", err)
	}
	dec, err := timeMs(probeReps, func(int) error { _, err := wire.ReadImage(bytes.NewReader(env.Bytes())); return err })
	if err != nil {
		return nil, fmt.Errorf("probe wire decode: %w", err)
	}

	// The cache takes ownership of an entry's bytes, so every Put gets its
	// own copy, made outside the timed call. Get re-verifies the SHA-256.
	disk := env.Bytes()[int64(env.Len())-size:]
	cache := retrievecache.New(int64(probeReps+1) * (size + 1<<20))
	entries := make([]*retrievecache.Entry, probeReps)
	for i := range entries {
		entries[i] = retrievecache.NewEntry(append([]byte(nil), disk...), img.Base, nil, 0, nil)
	}
	key := func(i int) retrievecache.Key { return retrievecache.NewKey("probe", nil, img.Name, uint64(i)) }
	put, err := timeMs(probeReps, func(i int) error {
		if !cache.Put(key(i), entries[i]) {
			return fmt.Errorf("probe retrievecache: entry %d rejected", i)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	get, err := timeMs(probeReps, func(i int) error {
		ent, err := cache.Get(key(i))
		if err == nil && ent == nil {
			err = fmt.Errorf("probe retrievecache: entry %d missing", i)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	mb := float64(size) / 1e6
	return []metric{
		{Name: "vdisk.serialize_mb_per_s", Unit: "MB/s", Value: mbPerS(size, ser), N: probeReps},
		{Name: "wire.encode_mb_per_s", Unit: "MB/s", Value: mbPerS(size, enc), N: probeReps},
		{Name: "wire.decode_mb_per_s", Unit: "MB/s", Value: mbPerS(size, dec), N: probeReps},
		{Name: "retrievecache.put_us_per_mb", Unit: "us/MB", Value: median(put) * 1e3 / mb, N: probeReps},
		{Name: "retrievecache.get_us_per_mb", Unit: "us/MB", Value: median(get) * 1e3 / mb, N: probeReps},
	}, nil
}

// replicaProbes start a fresh follower against the rig's writer (still
// serving after the L0 window) and time its bootstrap, then for a few
// probe publishes the catch-up and the first read of the new image.
func replicaProbes(rg *rig) ([]metric, error) {
	f, err := startFollower(rg.writer.addr, 0, false)
	if err != nil {
		return nil, err
	}
	defer f.close()
	ctx := context.Background()
	t0 := time.Now()
	if err := f.rep.CatchUp(ctx); err != nil {
		return nil, fmt.Errorf("probe replica bootstrap: %w", err)
	}
	bootstrap := float64(time.Since(t0)) / 1e6

	wt := rg.wt[0]
	var catchup, first, fetched []float64
	for _, v := range rg.in.probes[:3] {
		if _, err := wt.publish(wt.prepare(v.img)); err != nil {
			return nil, fmt.Errorf("probe replica publish: %w", err)
		}
		if err := wt.sync(); err != nil {
			return nil, err
		}
		_, b0 := f.rep.Fetches()
		t0 := time.Now()
		if err := f.rep.CatchUp(ctx); err != nil {
			return nil, fmt.Errorf("probe replica catch-up: %w", err)
		}
		t1 := time.Now()
		var sink fpWriter
		if _, _, err := f.sys.RetrieveTo(&sink, v.img.Name); err != nil {
			return nil, fmt.Errorf("probe replica first read: %w", err)
		}
		t2 := time.Now()
		_, b1 := f.rep.Fetches()
		catchup = append(catchup, float64(t1.Sub(t0))/1e6)
		first = append(first, float64(t2.Sub(t1))/1e6)
		fetched = append(fetched, float64(b1-b0))
	}
	return []metric{
		{Name: "replica.bootstrap_ms", Unit: "ms", Value: bootstrap, N: 1},
		{Name: "replica.catchup_ms", Unit: "ms", Value: median(catchup), N: len(catchup)},
		{Name: "replica.first_read_ms", Unit: "ms", Value: median(first), N: len(first)},
		{Name: "replica.fetch_bytes_per_publish", Unit: "bytes", Value: median(fetched)},
	}, nil
}

// storeProbes run on the L1 rig after its window. Live phase: the core
// and vmirepo calls a publish makes, single-threaded so each Sync reply
// is exactly that publish's journal; the follower's apply of the WAL
// those publishes wrote; a WAL compaction. Then the node is stopped and
// the directory probed from below: reopen, and the blob store's own
// read, put, sync and compact entry points.
func storeProbes(rg *rig) ([]metric, error) {
	sys := rg.writer.sys
	in := rg.in
	var out []metric

	heavy, err := timeMs(probeReps, func(int) error {
		_, _, err := sys.RetrieveTo(io.Discard, in.heaviest)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("probe heaviest retrieve: %w", err)
	}
	out = append(out, metric{Name: "core.retrieve_heaviest_ms", Unit: "ms", Value: median(heavy), N: probeReps})

	var pub, syn, rem, metaBytes, metaOps []float64
	for _, v := range in.probes {
		img := v.img.Clone()
		t0 := time.Now()
		if _, err := sys.PublishWith(img, core.PublishOpts{}); err != nil {
			return nil, fmt.Errorf("probe publish: %w", err)
		}
		t1 := time.Now()
		st, err := sys.Sync()
		if err != nil {
			return nil, fmt.Errorf("probe sync: %w", err)
		}
		t2 := time.Now()
		if err := sys.Remove(v.img.Name); err != nil {
			return nil, fmt.Errorf("probe remove: %w", err)
		}
		t3 := time.Now()
		if _, err := sys.Sync(); err != nil {
			return nil, fmt.Errorf("probe sync: %w", err)
		}
		pub = append(pub, float64(t1.Sub(t0))/1e6)
		syn = append(syn, float64(t2.Sub(t1))/1e6)
		rem = append(rem, float64(t3.Sub(t2))/1e6)
		if !st.Compacted {
			metaBytes = append(metaBytes, float64(st.MetaBytes))
			metaOps = append(metaOps, float64(st.MetaOps))
		}
	}
	out = append(out,
		metric{Name: "core.publish_ms", Unit: "ms", Value: median(pub), N: len(pub)},
		metric{Name: "core.remove_ms", Unit: "ms", Value: median(rem), N: len(rem)},
		metric{Name: "vmirepo.sync_ms", Unit: "ms", Value: median(syn), N: len(syn)},
		metric{Name: "metawal.bytes_per_publish", Unit: "bytes", Value: median(metaBytes)},
		metric{Name: "metawal.ops_per_publish", Unit: "count", Value: median(metaOps)})

	ms, batchOps, batchBytes, err := walProbes(sys.Repo().WAL())
	if err != nil {
		return nil, err
	}
	out = append(out, ms...)

	// From here on the node is down; rig.close still removes the directory.
	dir := rg.writer.dir
	if err := rg.writer.stop(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	repo, err := vmirepo.OpenAtOpts(dir, newDevice(), vmirepo.OpenOptions{})
	if err != nil {
		return nil, fmt.Errorf("probe reopen: %w", err)
	}
	out = append(out, metric{Name: "vmirepo.reopen_ms", Unit: "ms", Value: float64(time.Since(t0)) / 1e6, N: 1})
	if err := repo.Close(); err != nil {
		return nil, fmt.Errorf("probe reopen: %w", err)
	}

	if ms, err = metawalSyncProbe(rg, batchOps, batchBytes); err != nil {
		return nil, err
	}
	out = append(out, ms...)
	if ms, err = diskstoreProbes(filepath.Join(dir, "blobs"), in.seed); err != nil {
		return nil, err
	}
	return append(out, ms...), nil
}

// walProbes ship the live WAL's durable tail — what the probe publishes
// just journaled — into fresh followers and time the apply, then time a
// forced compaction of the log. It also returns the tail's shape for the
// append probe.
func walProbes(wal *metawal.Log) (ms []metric, ops int, bytesPerOp int, err error) {
	epoch, rc, size, err := wal.SnapshotReader()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("probe wal: %w", err)
	}
	snapshot := make([]byte, size)
	_, err = io.ReadFull(rc, snapshot)
	rc.Close()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("probe wal: read snapshot: %w", err)
	}
	var chunk []byte
	var apply []float64
	var st metawal.ApplyStats
	for i := 0; i < probeReps; i++ {
		f := metawal.NewFollower()
		if _, err := f.Restart(epoch, snapshot); err != nil {
			return nil, 0, 0, fmt.Errorf("probe wal: %w", err)
		}
		_, from := f.Position()
		if chunk == nil {
			tail, _, err := wal.WALReader(epoch, from)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("probe wal: %w", err)
			}
			chunk, err = io.ReadAll(tail)
			tail.Close()
			if err != nil {
				return nil, 0, 0, fmt.Errorf("probe wal: read tail: %w", err)
			}
		}
		t0 := time.Now()
		if st, err = f.Apply(epoch, from, chunk, nil); err != nil {
			return nil, 0, 0, fmt.Errorf("probe wal: apply: %w", err)
		}
		apply = append(apply, float64(time.Since(t0))/1e6)
	}
	t0 := time.Now()
	if _, err := wal.Compact(); err != nil {
		return nil, 0, 0, fmt.Errorf("probe wal: compact: %w", err)
	}
	compact := float64(time.Since(t0)) / 1e6
	ms = []metric{
		{Name: "metawal.follower_apply_us_per_op", Unit: "us", Value: ratio(median(apply)*1e3, float64(st.Ops)), N: len(apply)},
		{Name: "metawal.compact_ms", Unit: "ms", Value: compact, N: 1},
	}
	if st.Ops > 0 && st.Batches > 0 {
		ops, bytesPerOp = st.Ops/st.Batches, len(chunk)/st.Ops
	}
	return ms, ops, bytesPerOp, nil
}

// metawalSyncProbe times Record×batch + Sync on a fresh log beside the
// store, with batches shaped like the ones the run's WAL held.
func metawalSyncProbe(rg *rig, ops, bytesPerOp int) ([]metric, error) {
	ops, bytesPerOp = max(ops, 1), max(bytesPerOp, 64)
	wal, _, err := metawal.Open(filepath.Join(rg.writer.dir, "probe-wal"), metawal.Options{})
	if err != nil {
		return nil, fmt.Errorf("probe metawal: %w", err)
	}
	value := catalog.GenContent(uint64(rg.in.seed), bytesPerOp)
	var key [16]byte
	syn, err := timeMs(probeReps, func(i int) error {
		for j := 0; j < ops; j++ {
			binary.LittleEndian.PutUint64(key[:], uint64(i*ops+j))
			wal.Record(metadb.Op{Kind: metadb.OpPut, Bucket: "probe", Key: key[:], Value: value})
		}
		_, err := wal.Sync()
		return err
	})
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("probe metawal: %w", err)
	}
	return []metric{{Name: "metawal.sync_ms", Unit: "ms", Value: median(syn), N: probeReps}}, nil
}

// diskstoreProbes open the blob store the run left behind and time its
// public entry points on the blobs it holds.
func diskstoreProbes(dir string, seed int64) ([]metric, error) {
	ds, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		return nil, fmt.Errorf("probe diskstore: %w", err)
	}
	defer ds.Close()
	ids := ds.IDs()
	if len(ids) == 0 {
		return nil, fmt.Errorf("probe diskstore: the store holds no blobs")
	}
	sizes := make([]int64, len(ids))
	var total int64
	largest := 0
	for i, id := range ids {
		sizes[i], _ = ds.Size(id)
		total += sizes[i]
		if sizes[i] > sizes[largest] {
			largest = i
		}
	}

	// Small random reads of the largest (base) blob: what assembly does.
	rc, size, err := ds.Open(ids[largest])
	if err != nil {
		return nil, fmt.Errorf("probe diskstore: %w", err)
	}
	ra, ok := rc.(io.ReaderAt)
	if !ok {
		rc.Close()
		return nil, fmt.Errorf("probe diskstore: blob reader has no ReadAt")
	}
	r := subRand(seed, 200)
	buf := make([]byte, probeReadAtLen)
	t0 := time.Now()
	for i := 0; i < probeReadAts; i++ {
		if _, err := ra.ReadAt(buf, r.Int63n(size-probeReadAtLen)); err != nil {
			rc.Close()
			return nil, fmt.Errorf("probe diskstore: ReadAt: %w", err)
		}
	}
	readAt := float64(time.Since(t0)) / 1e3 / probeReadAts
	rc.Close()

	drain, err := timeMs(probeReps, func(int) error {
		for _, id := range ids {
			rc, _, err := ds.Open(id)
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, rc)
			rc.Close()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("probe diskstore: drain: %w", err)
	}

	// New blobs at the store's median (package) and largest (base) sizes.
	sorted := append([]int64(nil), sizes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var put [2][]float64
	var putIDs []blobstore.ID
	var putSizes [2]int64
	for k, n := range []int64{sorted[len(sorted)/2], sorted[len(sorted)-1]} {
		putSizes[k] = n
		data := catalog.GenContent(r.Uint64(), int(n))
		put[k], err = timeMs(probeReps, func(i int) error {
			binary.LittleEndian.PutUint64(data, uint64(i)+1) // every put stores new content
			id, _, _, err := ds.PutReader(bytes.NewReader(data))
			putIDs = append(putIDs, id)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("probe diskstore: put: %w", err)
		}
	}
	t0 = time.Now()
	if _, err := ds.SyncData(); err != nil {
		return nil, fmt.Errorf("probe diskstore: %w", err)
	}
	if _, err := ds.Sync(); err != nil {
		return nil, fmt.Errorf("probe diskstore: %w", err)
	}
	syncMs := float64(time.Since(t0)) / 1e6

	for _, id := range putIDs {
		if err := ds.Release(id); err != nil {
			return nil, fmt.Errorf("probe diskstore: %w", err)
		}
	}
	if _, err := ds.Sync(); err != nil {
		return nil, fmt.Errorf("probe diskstore: %w", err)
	}
	t0 = time.Now()
	if _, err := ds.Compact(); err != nil {
		return nil, fmt.Errorf("probe diskstore: compact: %w", err)
	}
	compactMs := float64(time.Since(t0)) / 1e6

	return []metric{
		{Name: "diskstore.readat_us", Unit: "us", Value: readAt, N: probeReadAts},
		{Name: "diskstore.open_read_mb_per_s", Unit: "MB/s", Value: mbPerS(total, drain), N: probeReps},
		{Name: "diskstore.put_small_mb_per_s", Unit: "MB/s", Value: mbPerS(putSizes[0], put[0]), N: probeReps},
		{Name: "diskstore.put_large_mb_per_s", Unit: "MB/s", Value: mbPerS(putSizes[1], put[1]), N: probeReps},
		{Name: "diskstore.sync_ms", Unit: "ms", Value: syncMs, N: 1},
		{Name: "diskstore.compact_ms", Unit: "ms", Value: compactMs, N: 1},
	}, nil
}
