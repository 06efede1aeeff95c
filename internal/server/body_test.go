package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestBodyWriterDigest: an image handed over by one WriteDigested call
// that makes up the whole body is sent with the digest it came with and is
// not hashed again — so a deliberately wrong digest passes through
// unchanged. Any other body is hashed inline.
func TestBodyWriterDigest(t *testing.T) {
	img := []byte("cached image bytes")
	var vouched [sha256.Size]byte
	vouched[0] = 0xAB // not the SHA-256 of img
	shaOf := func(p []byte) string { s := sha256.Sum256(p); return hex.EncodeToString(s[:]) }
	twice := append(append([]byte(nil), img...), img...)

	for _, tc := range []struct {
		name  string
		write func(bw *bodyWriter)
		want  string
	}{
		{"vouched", func(bw *bodyWriter) { bw.WriteDigested(img, vouched) }, hex.EncodeToString(vouched[:])},
		{"plain", func(bw *bodyWriter) { bw.Write(img) }, shaOf(img)},
		{"vouched-then-plain", func(bw *bodyWriter) { bw.WriteDigested(img, vouched); bw.Write(img) }, shaOf(twice)},
		{"plain-then-vouched", func(bw *bodyWriter) { bw.Write(img); bw.WriteDigested(img, vouched) }, shaOf(twice)},
	} {
		var body bytes.Buffer
		bw := &bodyWriter{w: &body, h: sha256.New()}
		tc.write(bw)
		if got := bw.digest(); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
		if bw.n != int64(body.Len()) {
			t.Errorf("%s: counted %d bytes, wrote %d", tc.name, bw.n, body.Len())
		}
	}
}
