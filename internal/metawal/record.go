package metawal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"expelliarmus/internal/metadb"
	"expelliarmus/internal/recframe"
)

// The WAL file starts with an 8-byte magic and then holds records in the
// shared recframe framing — the exact vocabulary of the blob segment
// logs:
//
//	offset 0: "EXPWAL1\n"
//	records: | crc32c (4, LE) | payload len n (4, LE) | kind (1) | payload (n) |
//
// A record is the unit of framing; a *commit marker* (recCommit) is the
// unit of atomicity: replay buffers op records and applies them only
// when their marker arrives, so a torn Sync batch is discarded whole —
// recovery can land between Syncs, never inside one.
var walMagic = []byte("EXPWAL1\n")

// walHeaderLen is the length of the WAL file header (just the magic).
const walHeaderLen = int64(len("EXPWAL1\n"))

// Record kinds. The first three map 1:1 onto metadb.OpKind; recCommit
// closes a batch and carries the batch's op count as an integrity check.
// Kind 4 is reserved: it named a bucket drop that no repository ever
// journaled, and replay refuses it as an unknown kind.
const (
	recPut          byte = 1 // uvarint bucket len | bucket | uvarint key len | key | value
	recDelete       byte = 2 // uvarint bucket len | bucket | key
	recCreateBucket byte = 3 // bucket
	recCommit       byte = 5 // uvarint op count of the batch it closes
)

// Local names for the shared framing, kept so the replay code reads in
// this package's vocabulary.
const recHeaderSize = recframe.HeaderSize

var (
	crcTable   = recframe.CRCTable
	errCorrupt = recframe.ErrCorrupt
)

func appendRecord(buf []byte, kind byte, payload []byte) []byte {
	return recframe.Append(buf, kind, payload)
}

func parseRecord(b []byte) (kind byte, payload []byte, size int, err error) {
	return recframe.Parse(b)
}

// appendOp frames one metadb op as a WAL record into buf.
func appendOp(buf []byte, op metadb.Op) []byte {
	var payload []byte
	var tmp [binary.MaxVarintLen64]byte
	putU := func(v uint64) { payload = append(payload, tmp[:binary.PutUvarint(tmp[:], v)]...) }
	var kind byte
	switch op.Kind {
	case metadb.OpPut:
		kind = recPut
		putU(uint64(len(op.Bucket)))
		payload = append(payload, op.Bucket...)
		putU(uint64(len(op.Key)))
		payload = append(payload, op.Key...)
		payload = append(payload, op.Value...)
	case metadb.OpDelete:
		kind = recDelete
		putU(uint64(len(op.Bucket)))
		payload = append(payload, op.Bucket...)
		payload = append(payload, op.Key...)
	case metadb.OpCreateBucket:
		kind = recCreateBucket
		payload = append(payload, op.Bucket...)
	default:
		// A kind this version cannot encode would silently vanish from the
		// replay history; fail loudly at write time instead of at recovery.
		panic(fmt.Sprintf("metawal: unencodable op kind %d", op.Kind))
	}
	return appendRecord(buf, kind, payload)
}

// decodeOp reverses appendOp for the three op record kinds. The returned
// Op's slices alias payload.
func decodeOp(kind byte, payload []byte) (metadb.Op, error) {
	getU := func() (uint64, error) {
		v, n := binary.Uvarint(payload)
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated varint in op record", errCorrupt)
		}
		payload = payload[n:]
		return v, nil
	}
	getBytes := func(what string) ([]byte, error) {
		n, err := getU()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(payload)) {
			return nil, fmt.Errorf("%w: op record %s length %d exceeds remaining %d", errCorrupt, what, n, len(payload))
		}
		out := payload[:n]
		payload = payload[n:]
		return out, nil
	}
	switch kind {
	case recPut:
		bucket, err := getBytes("bucket")
		if err != nil {
			return metadb.Op{}, err
		}
		key, err := getBytes("key")
		if err != nil {
			return metadb.Op{}, err
		}
		return metadb.Op{Kind: metadb.OpPut, Bucket: string(bucket), Key: key, Value: payload}, nil
	case recDelete:
		bucket, err := getBytes("bucket")
		if err != nil {
			return metadb.Op{}, err
		}
		return metadb.Op{Kind: metadb.OpDelete, Bucket: string(bucket), Key: payload}, nil
	case recCreateBucket:
		return metadb.Op{Kind: metadb.OpCreateBucket, Bucket: string(payload)}, nil
	default:
		return metadb.Op{}, fmt.Errorf("%w: unknown record kind %d", errCorrupt, kind)
	}
}

// batchTail is what scanBatches found past the last batch it delivered:
// the offset where whole-record framing stopped and why (frameErr is nil
// when the buffer was consumed to its end), and how many op records sit
// there without a marker. Whether that is a crash artifact to truncate, a
// torn chunk to refetch or corruption to refuse is the caller's decision.
type batchTail struct {
	off      int
	openOps  int
	frameErr error
}

// scanBatches is the one reader of the WAL's batch format: framed op
// records closed by a commit marker carrying their count. It walks
// buf[start:], hands each closed batch (which emit then owns) to emit
// together with the offset just past its marker, and stops at the first
// record that does not frame. A record whose CRC passes but whose content
// is wrong — an undecodable op, a malformed marker, a marker whose count
// disagrees with the records before it — is not a torn write (a crash
// cannot forge a checksum): it means a foreign or future format, and is
// returned as an error naming its offset rather than guessed at.
func scanBatches(buf []byte, start int, emit func(batch []metadb.Op, end int)) (batchTail, error) {
	off := start
	var batch []metadb.Op
	for off < len(buf) {
		kind, payload, size, err := parseRecord(buf[off:])
		if err != nil {
			return batchTail{off: off, openOps: len(batch), frameErr: err}, nil
		}
		if kind == recCommit {
			count, err := decodeCommitMarker(payload)
			if err != nil {
				return batchTail{}, fmt.Errorf("offset %d: %w", off, err)
			}
			if count != len(batch) {
				return batchTail{}, fmt.Errorf("offset %d: commit marker closes %d ops but %d are buffered", off, count, len(batch))
			}
			emit(batch, off+size)
			batch = nil
		} else {
			op, err := decodeOp(kind, payload)
			if err != nil {
				return batchTail{}, fmt.Errorf("offset %d: %w", off, err)
			}
			batch = append(batch, op)
		}
		off += size
	}
	return batchTail{off: off, openOps: len(batch)}, nil
}

// decodeCommitMarker validates a commit marker's payload.
func decodeCommitMarker(payload []byte) (int, error) {
	count, err := decodeUvarintAll(payload)
	if err != nil {
		return 0, fmt.Errorf("%w: bad commit marker", errCorrupt)
	}
	return int(count), nil
}

// applyOp replays one decoded op into db. Ops target buckets by name;
// CreateBucket-on-demand keeps a put/delete applicable even when the
// snapshot predates the bucket.
func applyOp(db *metadb.DB, op metadb.Op) {
	switch op.Kind {
	case metadb.OpPut:
		db.CreateBucket(op.Bucket).Put(op.Key, op.Value)
	case metadb.OpDelete:
		db.CreateBucket(op.Bucket).Delete(op.Key)
	case metadb.OpCreateBucket:
		db.CreateBucket(op.Bucket)
	}
}

// The commit file is the WAL's root of trust: which epoch's snapshot+log
// pair is current, and how far into the log durability extends. It is
// only ever replaced atomically (internal/atomicfile), never updated in
// place.
//
//	offset 0: "EXPWCM1\n"
//	body:     uvarint epoch | uvarint walLen
//	trailer:  crc32c of body (4, LE)
var commitMagic = []byte("EXPWCM1\n")

// encodeCommit serialises a commit record.
func encodeCommit(epoch uint64, walLen int64) []byte {
	var body []byte
	var tmp [binary.MaxVarintLen64]byte
	body = append(body, tmp[:binary.PutUvarint(tmp[:], epoch)]...)
	body = append(body, tmp[:binary.PutUvarint(tmp[:], uint64(walLen))]...)
	out := make([]byte, 0, len(commitMagic)+len(body)+4)
	out = append(out, commitMagic...)
	out = append(out, body...)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.Checksum(body, crcTable))
	return append(out, crcBuf[:]...)
}

// parseCommit decodes a commit record, rejecting any structural damage.
// A commit that parses but makes no sense (epoch 0, walLen below the WAL
// header) is rejected too — the encoder can never produce one.
func parseCommit(b []byte) (epoch uint64, walLen int64, err error) {
	if len(b) < len(commitMagic)+4 || string(b[:len(commitMagic)]) != string(commitMagic) {
		return 0, 0, fmt.Errorf("metawal: bad commit magic")
	}
	body := b[len(commitMagic) : len(b)-4]
	want := binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, crcTable) != want {
		return 0, 0, fmt.Errorf("metawal: commit checksum mismatch")
	}
	pos := 0
	getU := func() (uint64, error) {
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("metawal: truncated commit varint")
		}
		pos += n
		return v, nil
	}
	if epoch, err = getU(); err != nil {
		return 0, 0, err
	}
	wl, err := getU()
	if err != nil {
		return 0, 0, err
	}
	if pos != len(body) {
		return 0, 0, fmt.Errorf("metawal: %d trailing commit bytes", len(body)-pos)
	}
	if epoch == 0 {
		return 0, 0, fmt.Errorf("metawal: commit names epoch 0")
	}
	if int64(wl) < walHeaderLen {
		return 0, 0, fmt.Errorf("metawal: commit watermark %d below the WAL header", wl)
	}
	return epoch, int64(wl), nil
}

// encodeUvarint renders v as a standalone uvarint payload (the commit
// marker's op count).
func encodeUvarint(v int) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(v))
	return append([]byte(nil), tmp[:n]...)
}

// decodeUvarintAll decodes a payload that must be exactly one uvarint.
func decodeUvarintAll(b []byte) (uint64, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || n != len(b) {
		return 0, errCorrupt
	}
	return v, nil
}

// snapName and walName render the epoch-numbered file names.
func snapName(epoch uint64) string { return fmt.Sprintf("meta.snap-%08d", epoch) }
func walName(epoch uint64) string  { return fmt.Sprintf("meta.wal-%08d", epoch) }
