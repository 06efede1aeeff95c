package simio

import (
	"sync"
	"testing"
	"time"
)

// TestMeterConcurrentCharge charges one meter from many goroutines and
// checks the totals equal the sequential sum.
func TestMeterConcurrentCharge(t *testing.T) {
	var m Meter
	const workers = 8
	const charges = 500
	phases := []Phase{PhaseExport, PhaseStore, PhaseDB, PhaseHash}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < charges; i++ {
				m.Charge(phases[i%len(phases)], time.Duration(i+1)*time.Microsecond)
			}
		}(w)
	}
	wg.Wait()

	var want time.Duration
	for i := 0; i < charges; i++ {
		want += time.Duration(i+1) * time.Microsecond
	}
	want *= workers
	if got := m.Total(); got != want {
		t.Fatalf("Total = %v, want %v", got, want)
	}
	var phaseSum time.Duration
	for _, pc := range m.Breakdown() {
		phaseSum += pc.Cost
	}
	if phaseSum != want {
		t.Fatalf("phase sum = %v, want %v", phaseSum, want)
	}
	snap := m.Snapshot()
	if len(snap) != len(phases) {
		t.Fatalf("snapshot has %d phases, want %d", len(snap), len(phases))
	}
}
