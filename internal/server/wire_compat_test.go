package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/client"
	"expelliarmus/internal/core"
	"expelliarmus/internal/metawal"
	"expelliarmus/internal/server"
	"expelliarmus/internal/vmirepo"
	"expelliarmus/internal/wire"
)

// TestErrorKindTableEndToEnd walks wire.ErrorKinds: for every row, an
// operation error wrapping the row's sentinel leaves the server with the
// row's status and kind header, and comes out of the client as an error
// that unwraps to the sentinel the kind resurfaces as. Both ends walk
// the one table, so a kind cannot exist on one side only.
func TestErrorKindTableEndToEnd(t *testing.T) {
	// What the storage layers return in process, row for row. The table
	// must hold these very values (identity, not just errors.Is): a second
	// errors.New at an alias site would still match itself on each side
	// and silently stop matching across the wire.
	inProcess := []error{
		vmirepo.ErrNotFound, blobstore.ErrNotFound, blobstore.ErrCorrupt,
		vmirepo.ErrReadOnly, metawal.ErrEpochGone, vmirepo.ErrQuotaExceeded,
	}
	if len(inProcess) != len(wire.ErrorKinds) {
		t.Fatalf("table has %d rows, the layers name %d sentinels", len(wire.ErrorKinds), len(inProcess))
	}
	for i, row := range wire.ErrorKinds {
		if row.Err != inProcess[i] {
			t.Fatalf("row %d (%s): table holds %p %q, the storage layer returns %p %q", i, row.Kind, row.Err, row.Err, inProcess[i], inProcess[i])
		}
	}
	for _, row := range wire.ErrorKinds {
		t.Run(fmt.Sprintf("%s/%v", row.Kind, row.Err), func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				server.WriteError(w, fmt.Errorf("core: some operation: %w", row.Err))
			}))
			defer ts.Close()

			resp, err := http.Get(ts.URL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != row.Status || resp.Header.Get(wire.HeaderErrorKind) != row.Kind {
				t.Fatalf("server replied %d kind %q, want %d kind %q",
					resp.StatusCode, resp.Header.Get(wire.HeaderErrorKind), row.Status, row.Kind)
			}

			cl := client.New(ts.URL, client.Options{})
			defer cl.Close()
			want, ok := wire.KindNamed(row.Kind)
			if !ok {
				t.Fatalf("kind %q has no row to resurface as", row.Kind)
			}
			_, err = cl.Stats(context.Background())
			if !errors.Is(err, want.Err) {
				t.Fatalf("client error %v does not unwrap to %v", err, want.Err)
			}
			if got := errors.Unwrap(err); got != want.Err {
				t.Fatalf("client resurfaced %p %q, the table's value for the kind is %p %q", got, got, want.Err, want.Err)
			}
		})
	}

	// An error outside the vocabulary is a plain 500 without a kind.
	rec := httptest.NewRecorder()
	server.WriteError(rec, errors.New("disk on fire"))
	if rec.Code != http.StatusInternalServerError || rec.Header().Get(wire.HeaderErrorKind) != "" {
		t.Fatalf("unclassified error replied %d kind %q", rec.Code, rec.Header().Get(wire.HeaderErrorKind))
	}
}

// jsonKeys returns the sorted top-level keys of a JSON object.
func jsonKeys(t *testing.T, what string, body []byte) string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(body, &obj); err != nil {
		t.Fatalf("%s: not a JSON object: %v (%s)", what, err, body)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// TestWireBodiesKeepTheirKeys pins the JSON key set of every result body
// and of the retrieve trailer to what the protocol carried before the
// result types were unified under aliases: the blob half of the sync
// stats must stay flattened into the top-level object, and no field may
// be renamed, added or dropped by a refactor of the Go types.
func TestWireBodiesKeepTheirKeys(t *testing.T) {
	repo, err := vmirepo.OpenAtOpts(t.TempDir(), testDevice(), vmirepo.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystemWithRepo(repo, testDevice(), core.Options{CacheBytes: 64 << 20})
	t.Cleanup(func() { sys.Close() })
	addr, _ := startServer(t, sys)
	hc := &http.Client{Timeout: 2 * time.Minute}
	call := func(method, path string, body io.Reader) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, "http://"+addr+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %s", method, path, resp.Status)
		}
		return resp
	}
	bodyKeys := func(method, path string, body io.Reader) string {
		t.Helper()
		b, err := io.ReadAll(call(method, path, body).Body)
		if err != nil {
			t.Fatal(err)
		}
		return jsonKeys(t, path, b)
	}

	var env bytes.Buffer
	if err := wire.WriteImageMeta(&env, buildTestImage(t, "keys", true, 0), wire.PublishMeta{Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	const syncKeys = "BytesReclaimed Compacted DeadBytes IndexBytes MetaBytes MetaOps MetaSnapshotBytes SegmentBytes Segments SegmentsCompacted"
	for _, tc := range []struct {
		method, path string
		body         io.Reader
		want         string
	}{
		{"POST", "/v1/images", &env, "BaseStored Exported Phases Seconds Similarity Skipped"},
		{"POST", "/v1/sync", nil, syncKeys},
		{"POST", "/v1/compact", nil, syncKeys},
		{"POST", "/v1/vacuum", nil, "BlobsReleased BytesReclaimed MetaRemoved PackagesRemoved UserDataRemoved"},
		{"GET", "/v1/stats", nil, "Bases CacheBytes CacheEnabled CacheEntries CacheHits CacheMisses DeadBytes DiskBytes Packages Repl Tenants TotalBytes VMIs"},
	} {
		if got := bodyKeys(tc.method, tc.path, tc.body); got != tc.want {
			t.Errorf("%s %s keys:\n got %s\nwant %s", tc.method, tc.path, got, tc.want)
		}
	}

	resp := call("GET", "/v1/images/keys", nil)
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if got, want := jsonKeys(t, "result trailer", []byte(resp.Trailer.Get(wire.HeaderResult))), "Imported Phases Seconds"; got != want {
		t.Errorf("retrieve trailer keys:\n got %s\nwant %s", got, want)
	}
}
