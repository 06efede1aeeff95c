package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"testing"
	"time"

	"expelliarmus/internal/client"
	"expelliarmus/internal/core"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/wire"
)

// TestBodyWriterDigest: the response writer hashes nothing. The digest
// trailer is whatever the producer handed SetDigest — a deliberately wrong
// digest is sent as it is, and the client's check catches it — and a
// producer that succeeds without calling SetDigest gets the response
// aborted, which the client reads as a truncated stream.
func TestBodyWriterDigest(t *testing.T) {
	// Larger than the response buffer, so the body is on the wire before
	// the handler settles it, as an image's always is.
	img := bytes.Repeat([]byte("streamed image bytes"), 4<<10)
	right := sha256.Sum256(img)
	var wrong [sha256.Size]byte
	wrong[0] = 0xAB

	for _, tc := range []struct {
		name   string
		digest *[sha256.Size]byte // nil: the producer never calls SetDigest
	}{
		{"set", &right},
		{"set-wrong", &wrong},
		{"never-set", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				streamImage(w, func(sink io.Writer) (*core.RetrieveReport, error) {
					bw := sink.(*bodyWriter)
					bw.Write(img[:5]) // two writes: nothing can take the body as one image
					bw.Write(img[5:])
					if bw.n != int64(len(img)) {
						t.Errorf("counted %d bytes, wrote %d", bw.n, len(img))
					}
					if tc.digest != nil {
						bw.SetDigest(*tc.digest)
					}
					return &core.RetrieveReport{Meter: &simio.Meter{}}, nil
				})
			})}
			go srv.Serve(ln)
			defer srv.Close()
			addr := ln.Addr().String()

			cl := client.New(addr, client.Options{Timeout: time.Minute})
			defer cl.Close()
			var got bytes.Buffer
			_, _, err = cl.Retrieve(context.Background(), "img", &got)
			switch {
			case tc.digest == nil:
				if !errors.Is(err, client.ErrTruncated) {
					t.Fatalf("retrieve without a digest = %v, want ErrTruncated", err)
				}
				return
			case *tc.digest == right:
				if err != nil || !bytes.Equal(got.Bytes(), img) {
					t.Fatalf("retrieve = %q, %v; want the image, verified", got.Bytes(), err)
				}
			case err == nil:
				t.Fatal("retrieve verified a wrong digest")
			}

			// The trailers are the digest given and the bytes counted.
			resp, err := http.Get("http://" + addr + "/v1/images/img")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatal(err)
			}
			if sum := resp.Trailer.Get(wire.HeaderSha256); sum != hex.EncodeToString(tc.digest[:]) {
				t.Errorf("digest trailer %s, want the one set, %x", sum, *tc.digest)
			}
			if n := resp.Trailer.Get(wire.HeaderBytes); n != strconv.Itoa(len(img)) {
				t.Errorf("bytes trailer %s, want %d", n, len(img))
			}
		})
	}
}
