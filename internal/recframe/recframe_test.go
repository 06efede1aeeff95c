package recframe

import (
	"bytes"
	"errors"
	"testing"
)

// sample is a record with every header field non-trivial: a kind other
// than zero and a payload long enough that its length has several bits set.
var sample = Append(nil, 3, []byte("thirty-seven bytes of record payload!"))

// TestRoundTrip frames records of several shapes back to back and parses
// them off the head of the log one by one: same kind, same payload
// (aliasing the log, not copied), and sizes that add up to the log.
func TestRoundTrip(t *testing.T) {
	records := []struct {
		kind    byte
		payload []byte
	}{
		{1, nil},
		{0, []byte{0}},
		{5, []byte("commit")},
		{255, bytes.Repeat([]byte{0xA5}, 4096)},
		{2, []byte{}},
	}
	var log []byte
	for _, r := range records {
		log = Append(log, r.kind, r.payload)
	}
	rest := log
	for i, r := range records {
		kind, payload, size, err := Parse(rest)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if kind != r.kind || !bytes.Equal(payload, r.payload) || size != HeaderSize+len(r.payload) {
			t.Fatalf("record %d: kind %d, %d payload bytes, size %d; want kind %d, %d bytes", i, kind, len(payload), size, r.kind, len(r.payload))
		}
		if len(payload) > 0 && &payload[0] != &rest[HeaderSize] {
			t.Fatalf("record %d: payload was copied", i)
		}
		rest = rest[size:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last record", len(rest))
	}
}

// TestEverySingleBitFlipRejected flips each bit of a record in turn —
// checksum, length, kind and payload — alone at a log tail and followed by
// more log (so a length that grew finds bytes to cover). No flip may parse.
func TestEverySingleBitFlipRejected(t *testing.T) {
	for name, log := range map[string][]byte{
		"at the tail":      sample,
		"followed by more": Append(append([]byte(nil), sample...), 1, bytes.Repeat([]byte("next"), 64)),
	} {
		for bit := 0; bit < 8*len(sample); bit++ {
			damaged := append([]byte(nil), log...)
			damaged[bit/8] ^= 1 << (bit % 8)
			_, _, _, err := Parse(damaged)
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTorn) {
				t.Fatalf("%s: flipping bit %d of byte %d parsed (err = %v)", name, bit%8, bit/8, err)
			}
		}
	}
}

// TestTruncationAtEveryLength: every proper prefix of a record is torn —
// more bytes could have completed it — never corrupt and never a record.
func TestTruncationAtEveryLength(t *testing.T) {
	for n := 0; n < len(sample); n++ {
		if _, _, _, err := Parse(sample[:n]); !errors.Is(err, ErrTorn) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrTorn", n, len(sample), err)
		}
	}
	if _, _, size, err := Parse(sample); err != nil || size != len(sample) {
		t.Fatalf("whole record: size %d, err %v", size, err)
	}
}

// TestNextValidResynchronises: the scan recovery uses to tell a torn tail
// from damage with intact records behind it finds the first offset where
// a whole record parses, and reports none when there is none.
func TestNextValidResynchronises(t *testing.T) {
	for junk := 0; junk <= 2*HeaderSize; junk++ {
		log := append(bytes.Repeat([]byte{0xFF}, junk), sample...)
		if got := NextValid(log); got != junk {
			t.Fatalf("%d junk bytes before a record: NextValid = %d", junk, got)
		}
	}
	// A damaged record is skipped; the intact one behind it is found.
	damaged := append([]byte(nil), sample...)
	damaged[HeaderSize+4] ^= 0x10
	if got := NextValid(append(damaged, sample...)); got != len(sample) {
		t.Fatalf("damaged record then a good one: NextValid = %d, want %d", got, len(sample))
	}
	for name, log := range map[string][]byte{
		"empty":            nil,
		"shorter than hdr": sample[:HeaderSize-1],
		"torn record":      sample[:len(sample)-1],
		"damaged record":   damaged,
		"zero-filled tail": make([]byte, 64),
	} {
		if got := NextValid(log); got != -1 {
			t.Fatalf("%s: NextValid = %d, want -1", name, got)
		}
	}
}
