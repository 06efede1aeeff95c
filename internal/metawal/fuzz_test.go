package metawal

// Fuzz targets for the WAL's on-disk decoders, mirroring the blob
// segment/index fuzzers: on arbitrary input they must never panic (or
// allocate proportionally to attacker-controlled counts), and any input
// they accept must survive a semantic encode/decode round trip — our own
// encoder is a fixed point. Seeds live in testdata/fuzz and via f.Add;
// CI runs a short -fuzz smoke on every PR.

import (
	"bytes"
	"testing"

	"expelliarmus/internal/metadb"
)

func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(walMagic)
	f.Add(appendOp(nil, metadb.Op{Kind: metadb.OpPut, Bucket: "masters", Key: []byte("base-1"), Value: []byte("graph bytes")}))
	f.Add(appendOp(nil, metadb.Op{Kind: metadb.OpPut, Bucket: "", Key: nil, Value: nil}))
	f.Add(appendOp(nil, metadb.Op{Kind: metadb.OpDelete, Bucket: "vmis", Key: []byte("Redis")}))
	f.Add(appendOp(nil, metadb.Op{Kind: metadb.OpCreateBucket, Bucket: "userdata"}))
	f.Add(appendRecord(nil, 4, []byte("userdata"))) // reserved kind: decodeOp must refuse it
	f.Add(appendRecord(nil, recCommit, encodeUvarint(3)))
	batch := appendOp(nil, metadb.Op{Kind: metadb.OpPut, Bucket: "b", Key: []byte("k"), Value: []byte("v")})
	batch = appendRecord(batch, recCommit, encodeUvarint(1))
	f.Add(batch)
	f.Add(batch[:len(batch)-3]) // torn tail
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, size, err := parseRecord(data)
		if err != nil {
			return
		}
		if size < recHeaderSize || size > len(data) {
			t.Fatalf("accepted record with impossible size %d of %d", size, len(data))
		}
		if kind == recCommit {
			count, err := decodeCommitMarker(payload)
			if err != nil {
				return
			}
			re := appendRecord(nil, recCommit, encodeUvarint(count))
			kind2, payload2, _, err2 := parseRecord(re)
			if err2 != nil || kind2 != recCommit {
				t.Fatalf("re-encoded commit marker rejected: %v", err2)
			}
			if count2, err2 := decodeCommitMarker(payload2); err2 != nil || count2 != count {
				t.Fatalf("commit marker round trip changed count")
			}
			return
		}
		op, err := decodeOp(kind, payload)
		if err != nil {
			return
		}
		re := appendOp(nil, op)
		kind2, payload2, size2, err2 := parseRecord(re)
		if err2 != nil {
			t.Fatalf("re-encoded op record rejected: %v", err2)
		}
		op2, err2 := decodeOp(kind2, payload2)
		if err2 != nil {
			t.Fatalf("re-encoded op payload rejected: %v", err2)
		}
		if size2 != len(re) || op2.Kind != op.Kind || op2.Bucket != op.Bucket ||
			!bytes.Equal(op2.Key, op.Key) || !bytes.Equal(op2.Value, op.Value) {
			t.Fatalf("op record round trip changed value")
		}
	})
}

func FuzzCommit(f *testing.F) {
	f.Add([]byte{})
	f.Add(commitMagic)
	f.Add(encodeCommit(1, walHeaderLen))
	f.Add(encodeCommit(12345, 1<<40))
	full := encodeCommit(7, 4096)
	f.Add(full[:len(full)-2]) // torn trailer
	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, walLen, err := parseCommit(data)
		if err != nil {
			return
		}
		if epoch == 0 || walLen < walHeaderLen {
			t.Fatalf("accepted a commit the encoder can never produce: epoch %d, walLen %d", epoch, walLen)
		}
		re := encodeCommit(epoch, walLen)
		epoch2, walLen2, err2 := parseCommit(re)
		if err2 != nil {
			t.Fatalf("re-encoded commit rejected: %v", err2)
		}
		if epoch2 != epoch || walLen2 != walLen {
			t.Fatalf("commit round trip changed value")
		}
	})
}
