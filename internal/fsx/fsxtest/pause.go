package fsxtest

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/fsx"
)

// Pause counts the calls one party makes at a seam, a blob store (Blobs)
// or a file system (FS), and the start of the stream it writes its result
// to (Writer), and parks the party at one of them until it is resumed.
// Blob calls are Open, PutReader, Release and Read (a Read or ReadAt on a
// reader Open handed out); file calls are Fault's mutating ones plus read.
// A run of consecutive reads or writes through one reader or file is one
// call, so a lazy reader's many small reads do not multiply the points. A
// Pause counts only while it is armed, and only one party may run then:
// PauseSweep arms it for the party it parks.
type Pause struct {
	mu     sync.Mutex
	on     bool
	at     int // the call to park at; 0 parks nowhere
	calls  []fsx.Call
	run    any    // the reader or file of the last call, when a read or write
	stack  string // the parked party's stack
	parked chan struct{}
	resume chan struct{}
}

// NewPause returns a Pause that counts nothing until it is armed.
func NewPause() *Pause { return &Pause{} }

// Arm starts counting calls afresh and parks the party at its call n, or
// nowhere when n is 0. Counting stops once the party has parked.
func (p *Pause) Arm(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.on, p.at, p.calls, p.run = true, n, nil, nil
	p.parked, p.resume = make(chan struct{}), make(chan struct{})
}

// Calls stops counting and returns the calls counted since Arm.
func (p *Pause) Calls() []fsx.Call {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.on = false
	return p.calls
}

// Parked returns a channel closed once the party has parked.
func (p *Pause) Parked() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.parked
}

// Resume lets the parked party go on.
func (p *Pause) Resume() {
	p.mu.Lock()
	defer p.mu.Unlock()
	close(p.resume)
}

// step counts one call, unless it continues a run through the handle h
// (nil for a call through no handle), and parks the caller if it is the
// armed one.
func (p *Pause) step(op, name string, h any) {
	p.mu.Lock()
	if !p.on || (h != nil && h == p.run) {
		p.mu.Unlock()
		return
	}
	p.run = h
	p.calls = append(p.calls, fsx.Call{Op: op, File: name})
	park := len(p.calls) == p.at
	parked, resume := p.parked, p.resume
	if park {
		p.on = false
		p.stack = goroutineStack(false)
	}
	p.mu.Unlock()
	if park {
		close(parked)
		<-resume
	}
}

// Blobs returns b with its calls counted by p.
func (p *Pause) Blobs(b blobstore.Backend) blobstore.Backend { return pausedBlobs{b, p} }

type pausedBlobs struct {
	blobstore.Backend
	p *Pause
}

// blobName is the short form of a blob ID a call trace shows.
func blobName(id blobstore.ID) string { return id.String()[:12] }

func (b pausedBlobs) PutReader(r io.Reader) (blobstore.ID, int64, bool, error) {
	b.p.step("PutReader", "", nil)
	return b.Backend.PutReader(r)
}

func (b pausedBlobs) Release(id blobstore.ID) error {
	b.p.step("Release", blobName(id), nil)
	return b.Backend.Release(id)
}

func (b pausedBlobs) Open(id blobstore.ID) (io.ReadCloser, int64, error) {
	b.p.step("Open", blobName(id), nil)
	rc, size, err := b.Backend.Open(id)
	if err != nil {
		return rc, size, err
	}
	ra, ok := rc.(io.ReaderAt)
	if !ok {
		rc.Close()
		return nil, 0, fmt.Errorf("fsxtest: blob reader %T is not an io.ReaderAt", rc)
	}
	return &pausedReader{rc, ra, blobName(id), b.p}, size, nil
}

type pausedReader struct {
	io.ReadCloser
	ra   io.ReaderAt
	name string
	p    *Pause
}

func (r *pausedReader) Read(b []byte) (int, error) {
	r.p.step("Read", r.name, r)
	return r.ReadCloser.Read(b)
}

func (r *pausedReader) ReadAt(b []byte, off int64) (int, error) {
	r.p.step("Read", r.name, r)
	return r.ra.ReadAt(b, off)
}

// Writer returns w with its first write counted by p: the caller a party
// streams its result to, which may stall it as the stream begins.
func (p *Pause) Writer(w io.Writer) io.Writer { return &pausedWriter{w: w, p: p} }

type pausedWriter struct {
	w       io.Writer
	p       *Pause
	started bool
}

func (w *pausedWriter) Write(b []byte) (int, error) {
	if !w.started {
		w.started = true
		w.p.step("Write", "", nil)
	}
	return w.w.Write(b)
}

// FS returns fsys with its calls counted by p.
func (p *Pause) FS(fsys fsx.FS) fsx.FS { return pausedFS{fsys, p} }

type pausedFS struct {
	fsx.FS
	p *Pause
}

func (f pausedFS) OpenFile(name string, flag int) (fsx.File, error) {
	if flag&(os.O_CREATE|os.O_TRUNC) != 0 {
		f.p.step("create", filepath.Base(name), nil)
	}
	return f.wrap(f.FS.OpenFile(name, flag))
}

func (f pausedFS) CreateTemp(dir, pattern string) (fsx.File, error) {
	f.p.step("create", pattern, nil)
	return f.wrap(f.FS.CreateTemp(dir, pattern))
}

func (f pausedFS) wrap(file fsx.File, err error) (fsx.File, error) {
	if err != nil {
		return nil, err
	}
	return &pausedFile{file, f.p}, nil
}

func (f pausedFS) ReadFile(name string) ([]byte, error) {
	f.p.step("read", filepath.Base(name), nil)
	return f.FS.ReadFile(name)
}

func (f pausedFS) MkdirAll(path string) error {
	f.p.step("mkdir", filepath.Base(path), nil)
	return f.FS.MkdirAll(path)
}

func (f pausedFS) Remove(name string) error {
	f.p.step("remove", filepath.Base(name), nil)
	return f.FS.Remove(name)
}

func (f pausedFS) Rename(oldpath, newpath string) error {
	f.p.step("rename", filepath.Base(newpath), nil)
	return f.FS.Rename(oldpath, newpath)
}

func (f pausedFS) SyncDir(dir string) error {
	f.p.step("syncdir", filepath.Base(dir), nil)
	return f.FS.SyncDir(dir)
}

type pausedFile struct {
	fsx.File
	p *Pause
}

// run is the handle a run of one op through the file continues.
type run struct {
	f  *pausedFile
	op string
}

func (f *pausedFile) step(op string, h any) { f.p.step(op, filepath.Base(f.Name()), h) }

func (f *pausedFile) Read(b []byte) (int, error) {
	f.step("read", run{f, "read"})
	return f.File.Read(b)
}

func (f *pausedFile) ReadAt(b []byte, off int64) (int, error) {
	f.step("read", run{f, "read"})
	return f.File.ReadAt(b, off)
}

func (f *pausedFile) Write(b []byte) (int, error) {
	f.step("write", run{f, "write"})
	return f.File.Write(b)
}

func (f *pausedFile) Sync() error {
	f.step("sync", nil)
	return f.File.Sync()
}

func (f *pausedFile) Truncate(size int64) error {
	f.step("truncate", nil)
	return f.File.Truncate(size)
}

// Party is one side of a pause sweep. It runs one operation to its end and
// names the committed state it saw: a reader the state its bytes are, a
// writer "", which PauseSweep does not check.
type Party func() (state string, err error)

// Schedule builds one trial of a pause sweep from scratch: a scenario
// whose seam calls go through p, and its two parties. PauseSweep parks
// first at one of its calls and runs second while first waits.
type Schedule func(t *testing.T, p *Pause) (first, second Party)

// Interleaving is one trial of a pause sweep: first was parked at its call
// N, Call, with the stack Parked, while second ran. Waited is second's
// stack where it was seen waiting on the parked first, or "" when second
// returned while first was parked.
type Interleaving struct {
	N              int
	Call           fsx.Call
	Parked, Waited string
}

// PauseSweep enumerates the interleavings of two parties at first's seam
// calls, as Sweep enumerates crash points. A dry run counts first's calls
// alone, then runs second; every state either names must be the last of
// states. Then, for each call N, a fresh trial parks first at call N and
// runs second until second returns or is seen waiting (in a goroutine
// dump, a sync or channel wait under one of the frames in waits) on the
// parked first; then it resumes first. No step waits on a timer.
//
// Every state a trial's parties name must be one of states, its order in
// states must never decrease with N, and the first and the last of states
// must both be reached; a window's Want narrows its calls' states to one. PauseSweep returns the trials for the caller to
// check what second was allowed to do at each call.
func PauseSweep(t *testing.T, states []string, windows []Window, waits []string, sched Schedule) []Interleaving {
	t.Helper()
	dry := NewPause()
	first, second := sched(t, dry)
	dry.Arm(0)
	s1, err := first()
	calls := dry.Calls()
	if err != nil {
		t.Fatalf("unpaused first party: %v", err)
	}
	s2, err := second()
	if err != nil {
		t.Fatalf("second party after the unpaused first: %v", err)
	}
	last := states[len(states)-1]
	for _, s := range []string{s1, s2} {
		if s != "" && s != last {
			t.Fatalf("the parties run one after the other saw %q, want %q", s, last)
		}
	}
	if len(calls) == 0 {
		t.Fatal("the first party made no seam call")
	}
	if len(windows) == 0 {
		windows = []Window{{}}
	}
	starts := windowStarts(t, calls, windows)

	var ins []Interleaving
	latest, reached := 0, make([]bool, len(states))
	for i, w := range windows {
		sweep := func(t *testing.T) {
			t.Helper()
			for n := starts[i]; n < starts[i+1]; n++ {
				in, seen := interleave(t, sched, n, calls[n-1], waits)
				for _, s := range seen {
					k := slices.Index(states, s)
					switch {
					case k < 0:
						t.Fatalf("call %d (%s %s): a party saw unknown state %q", n, in.Call.Op, in.Call.File, s)
					case w.Want != "" && s != w.Want:
						t.Fatalf("call %d (%s %s): a party saw %q, want %q", n, in.Call.Op, in.Call.File, s, w.Want)
					case k < latest:
						t.Fatalf("call %d (%s %s): a party saw %q after one parked earlier saw %q",
							n, in.Call.Op, in.Call.File, s, states[latest])
					}
					latest, reached[k] = k, true
				}
				ins = append(ins, in)
			}
		}
		if w.Name == "" {
			sweep(t)
		} else {
			t.Run(w.Name, sweep)
		}
	}
	if !reached[0] || !reached[len(states)-1] {
		t.Errorf("%d pause points never saw both %q and %q", len(calls), states[0], states[len(states)-1])
	}
	t.Logf("%d pause points %v", len(calls), calls)
	return ins
}

// interleave runs one trial: first parked at call n, second run while it
// waits. It returns the trial and the states the parties named.
func interleave(t *testing.T, sched Schedule, n int, want fsx.Call, waits []string) (Interleaving, []string) {
	t.Helper()
	p := NewPause()
	first, second := sched(t, p)
	p.Arm(n)
	r1 := goParty(first)
	select {
	case <-p.Parked():
	case <-r1.done:
		t.Fatalf("call %d (%s %s): the first party returned after %d calls (err %v)", n, want.Op, want.File, len(p.Calls()), r1.err)
	}
	in := Interleaving{N: n, Call: p.calls[n-1], Parked: p.stack}
	if in.Call != want {
		p.Resume()
		<-r1.done
		t.Fatalf("call %d is %v, the dry run's was %v: the party is not deterministic", n, in.Call, want)
	}
	r2 := goParty(second)
	in.Waited = r2.waitOrWaiting(waits)
	p.Resume()
	<-r1.done
	<-r2.done
	for i, r := range []*partyRun{r1, r2} {
		if r.err != nil {
			t.Fatalf("call %d (%s %s): party %d: %v", n, in.Call.Op, in.Call.File, i+1, r.err)
		}
	}
	var seen []string
	for _, s := range []string{r1.state, r2.state} {
		if s != "" {
			seen = append(seen, s)
		}
	}
	return in, seen
}

// partyRun is a party running on a goroutine of its own.
type partyRun struct {
	done  chan struct{}
	gid   chan string
	state string
	err   error
}

func goParty(party Party) *partyRun {
	r := &partyRun{done: make(chan struct{}), gid: make(chan string, 1)}
	go func() {
		defer close(r.done)
		defer func() {
			if v := recover(); v != nil {
				r.err = fmt.Errorf("panic: %v\n%s", v, goroutineStack(false))
			}
		}()
		header, _, _ := strings.Cut(goroutineStack(false), "[")
		r.gid <- header
		r.state, r.err = party()
	}()
	return r
}

// waitOrWaiting returns "" once the party returns, or its stack once a
// goroutine dump shows it in a sync or channel wait under one of frames.
func (r *partyRun) waitOrWaiting(frames []string) string {
	header := <-r.gid
	for {
		// A goroutine dump stops the world, so it is taken only after
		// a spell of yielding in which the party did not return.
		for range 64 {
			select {
			case <-r.done:
				return ""
			default:
				runtime.Gosched()
			}
		}
		for _, g := range strings.Split(goroutineStack(true), "\n\n") {
			if !strings.HasPrefix(g, header) {
				continue
			}
			status, _, _ := strings.Cut(strings.TrimPrefix(g, header+"["), "]")
			if waiting(status) && slices.ContainsFunc(frames, func(f string) bool { return strings.Contains(g, f) }) {
				return g
			}
		}
	}
}

// AwaitWaiting returns true once a goroutine dump shows n goroutines in a
// sync or channel wait made in a function whose name contains frame: the
// first frame of their stack outside the runtime and the sync packages. A
// goroutine that waits in a function frame calls is not counted. It
// returns false as soon as done is closed (a nil done never is): the party
// it waits for returned instead. It yields between dumps and never sleeps;
// with no deadline of its own, the test binary's -timeout bounds it.
func AwaitWaiting(n int, frame string, done <-chan struct{}) bool {
	for {
		for range 64 {
			select {
			case <-done:
				return false
			default:
				runtime.Gosched()
			}
		}
		found := 0
		for _, g := range strings.Split(goroutineStack(true), "\n\n") {
			_, rest, _ := strings.Cut(g, "[")
			status, stack, _ := strings.Cut(rest, "]")
			if !waiting(status) {
				continue
			}
			for _, line := range strings.Split(stack, "\n")[1:] {
				if !strings.HasPrefix(line, "\t") && !strings.HasPrefix(line, "runtime.") &&
					!strings.HasPrefix(line, "sync.") && !strings.HasPrefix(line, "internal/") {
					if strings.Contains(line, frame) {
						found++
					}
					break
				}
			}
		}
		if found >= n {
			return true
		}
	}
}

// waiting reports whether a goroutine status is a wait on a lock or a
// channel, one another goroutine must end.
func waiting(status string) bool {
	status, _, _ = strings.Cut(status, ",")
	return strings.HasPrefix(status, "sync.") || strings.HasPrefix(status, "chan ") ||
		status == "select" || status == "semacquire"
}

// goroutineStack returns the calling goroutine's stack, or every
// goroutine's.
func goroutineStack(all bool) string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, all)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}

// windowStarts returns the first call of each window and, last, one past
// the last call. A window opens at the first call, after the previous
// window opened, whose file starts with its From and, when Op is set,
// whose Op is Op; the first window opens at call 1.
func windowStarts(t *testing.T, calls []fsx.Call, windows []Window) []int {
	t.Helper()
	starts := []int{1}
	for _, w := range windows[1:] {
		n := starts[len(starts)-1] + 1
		for n <= len(calls) && !(strings.HasPrefix(calls[n-1].File, w.From) && (w.Op == "" || calls[n-1].Op == w.Op)) {
			n++
		}
		if n > len(calls) {
			t.Fatalf("window %s: no %s call on %s* after call %d of %v", w.Name, w.Op, w.From, starts[len(starts)-1], calls)
		}
		starts = append(starts, n)
	}
	return append(starts, len(calls)+1)
}
