// Package fsxtest drives crash sweeps over an fsx.Fault: instead of
// crashing at hand-picked points, a sweep crashes a scenario at every
// mutating file-system call of the operation under test, in turn. Pause
// sweeps enumerate schedules the same way: they park one party at every
// call it makes at the blob or file seam, in turn, and run another while
// it waits.
package fsxtest

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"expelliarmus/internal/fsx"
)

// Window names a run of consecutive crash points of a sweep, so a failure
// reads as a phase of the protocol under test. A window opens at the first
// mutating call, after the previous window opened, whose file's base name
// starts with From and, when Op is set, whose Op is Op; the first window
// opens at call 1 whatever its From. Want, when set, is the state every
// crash in the window must recover.
type Window struct {
	Name     string
	From, Op string
	Want     string
}

// Trial runs one crash point of a sweep. It builds the scenario on ffs,
// calls ffs.Inject(fsx.Crash, n, "") where the swept operation (the
// window) begins, runs it, then reopens what the run left behind on the
// real file system and returns the name of the committed state it
// recovered. n = 0 arms nothing: the trial must then close its stores
// cleanly before it reopens.
type Trial func(t *testing.T, ffs *fsx.Fault, n int) (state string)

// Sweep crashes a scenario at every mutating call of its window, N = 1 ..
// calls, where a dry run (n = 0) counts the calls and must recover the
// last of states. It checks that every crash recovers one of states, that
// their order in states never decreases with N, and that the first and
// the last are both reached. With windows, each window runs as a subtest
// over its crash points, and a window's Want narrows its states to one.
func Sweep(t *testing.T, states []string, windows []Window, trial Trial) {
	t.Helper()
	dry := fsx.NewFault()
	if got := trial(t, dry, 0); got != states[len(states)-1] {
		t.Fatalf("uncrashed run recovered %q, want %q", got, states[len(states)-1])
	}
	calls := dry.Trace()
	if len(windows) == 0 {
		windows = []Window{{}}
	}
	starts := windowStarts(t, calls, windows)

	last, reached := 0, make([]bool, len(states))
	for i, w := range windows {
		run := func(t *testing.T) {
			for n := starts[i]; n < starts[i+1]; n++ {
				ffs := fsx.NewFault()
				got := trial(t, ffs, n)
				c := calls[n-1]
				if !ffs.Crashed() {
					t.Fatalf("crash at call %d (%s %s) never fired", n, c.Op, c.File)
				}
				k := slices.Index(states, got)
				if k < 0 {
					t.Fatalf("crash at call %d (%s %s) recovered unknown state %q", n, c.Op, c.File, got)
				}
				if w.Want != "" && got != w.Want {
					t.Fatalf("crash at call %d (%s %s) recovered %q, want %q", n, c.Op, c.File, got, w.Want)
				}
				if k < last {
					t.Fatalf("crash at call %d (%s %s) recovered %q after a crash before it recovered %q",
						n, c.Op, c.File, got, states[last])
				}
				last, reached[k] = k, true
			}
		}
		if w.Name == "" {
			run(t)
		} else {
			t.Run(w.Name, run)
		}
	}
	if !reached[0] || !reached[len(states)-1] {
		t.Errorf("%d crash points never recovered both %q and %q", len(calls), states[0], states[len(states)-1])
	}
	t.Logf("%d crash points", len(calls))
}

// CopyDir copies directory src into a fresh temporary directory and
// returns it, so each trial of a sweep can start from the same closed
// store without rebuilding it.
func CopyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
