package simio

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMeterChargeAndTotal(t *testing.T) {
	var m Meter
	m.Charge(PhaseLaunch, 2*time.Second)
	m.Charge(PhaseCopy, 3*time.Second)
	m.Charge(PhaseLaunch, time.Second)
	if got := m.Total(); got != 6*time.Second {
		t.Fatalf("Total = %v, want 6s", got)
	}
	if got := m.Phase(PhaseLaunch); got != 3*time.Second {
		t.Fatalf("Phase(launch) = %v, want 3s", got)
	}
	if got := m.Phase(PhaseReset); got != 0 {
		t.Fatalf("Phase(reset) = %v, want 0", got)
	}
	if got := m.Seconds(); got != 6 {
		t.Fatalf("Seconds = %v, want 6", got)
	}
}

func TestMeterBreakdownOrdering(t *testing.T) {
	var m Meter
	m.Charge(PhaseImport, 5*time.Second)
	m.Charge(PhaseCopy, 7*time.Second)
	m.Charge(PhaseReset, 5*time.Second)
	bd := m.Breakdown()
	if len(bd) != 3 {
		t.Fatalf("len(Breakdown) = %d, want 3", len(bd))
	}
	if bd[0].Phase != PhaseCopy {
		t.Errorf("Breakdown[0] = %v, want copy first (largest)", bd[0].Phase)
	}
	// Equal costs are ordered by phase name for determinism.
	if bd[1].Phase != PhaseImport || bd[2].Phase != PhaseReset {
		t.Errorf("tie order = %v,%v, want import,reset", bd[1].Phase, bd[2].Phase)
	}
}

func TestMeterReset(t *testing.T) {
	var m Meter
	m.Charge(PhaseDB, time.Second)
	m.Reset()
	if m.Total() != 0 || len(m.Breakdown()) != 0 {
		t.Fatalf("meter not empty after Reset: %v", m.String())
	}
}

// TestMeterWallIsItsOwn: a lap lands in WallSeconds under its phase and
// nowhere in the modeled totals, Reset clears it, and only a meter's first
// lap allocates.
func TestMeterWallIsItsOwn(t *testing.T) {
	var m Meter
	m.Charge(PhaseDB, time.Second)
	start := time.Now().Add(-time.Millisecond)
	m.Lap(PhaseImport, m.Lap(PhaseCopy, start))
	wall := m.WallSeconds()
	if len(wall) != 2 || wall["copy"] < 0.001 || wall["import"] < 0 {
		t.Fatalf("WallSeconds = %v, want copy >= 1ms and import", wall)
	}
	if m.Total() != time.Second || len(m.PhaseSeconds()) != 1 {
		t.Fatalf("a lap moved the modeled totals: %v", m.String())
	}
	if n := testing.AllocsPerRun(100, func() { m.Lap(PhaseDB, start) }); n != 0 {
		t.Fatalf("Lap allocates %v times", n)
	}
	m.Reset()
	if wall := m.WallSeconds(); len(wall) != 0 {
		t.Fatalf("WallSeconds after Reset = %v", wall)
	}
}

func TestMeterSnapshotIsCopy(t *testing.T) {
	var m Meter
	m.Charge(PhaseHash, time.Second)
	snap := m.Snapshot()
	snap[PhaseHash] = 99 * time.Second
	if m.Phase(PhaseHash) != time.Second {
		t.Fatal("Snapshot aliases internal state")
	}
}

func TestMeterString(t *testing.T) {
	var m Meter
	m.Charge(PhaseLaunch, 1500*time.Millisecond)
	s := m.String()
	if !strings.Contains(s, "launch=1.50s") || !strings.HasPrefix(s, "1.50s") {
		t.Fatalf("String = %q", s)
	}
}

func TestMeterNegativeChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative charge")
		}
	}()
	var m Meter
	m.Charge(PhaseDB, -time.Second)
}

func TestMeterConcurrentCharges(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Charge(PhaseStore, time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got, want := m.Total(), 5000*time.Millisecond; got != want {
		t.Fatalf("Total = %v, want %v", got, want)
	}
}

func TestDeviceByteCostsLinear(t *testing.T) {
	d := NewDevice(PaperProfile())
	one := d.ReadCost(1e6)
	two := d.ReadCost(2e6)
	if math.Abs(two.Seconds()-2*one.Seconds()) > 1e-9 {
		t.Fatalf("ReadCost not linear: %v vs 2*%v", two, one)
	}
	if d.ReadCost(0) != 0 || d.WriteCost(0) != 0 || d.HashCost(0) != 0 {
		t.Fatal("zero bytes must cost zero")
	}
	if d.WriteCost(1e6) <= d.ReadCost(1e6) {
		t.Fatal("profile models writes slower than reads; costs disagree")
	}
}

func TestDeviceSmallFilePenalty(t *testing.T) {
	p := PaperProfile()
	d := NewDevice(p)
	small := d.SmallFileReadCost(p.SmallFileSize - 1)
	large := d.SmallFileReadCost(p.SmallFileSize)
	// The small file is ~1 byte shorter but must cost notably more due to
	// the per-file penalty exceeding the metadata-only overhead.
	if small <= large {
		t.Fatalf("small-file read %v not penalised vs large %v", small, large)
	}
	wantMin := p.SmallFileReadLat
	if small < wantMin {
		t.Fatalf("small-file read %v below penalty %v", small, wantMin)
	}
}

func TestDeviceDBCostPages(t *testing.T) {
	p := PaperProfile()
	d := NewDevice(p)
	if got := d.DBCost(0); got != p.DBPageLat {
		t.Fatalf("DBCost(0) = %v, want one page %v", got, p.DBPageLat)
	}
	if got := d.DBCost(1); got != p.DBPageLat {
		t.Fatalf("DBCost(1) = %v, want one page", got)
	}
	if got := d.DBCost(p.DBPageSize + 1); got != 2*p.DBPageLat {
		t.Fatalf("DBCost(pagesize+1) = %v, want two pages", got)
	}
}

func TestDevicePerItemCosts(t *testing.T) {
	p := PaperProfile()
	d := NewDevice(p)
	if got := d.OpenCost(10); got != 10*p.FileOpenLat {
		t.Fatalf("OpenCost(10) = %v", got)
	}
	if got := d.ResetCost(1000); got != 1000*p.FileResetLat {
		t.Fatalf("ResetCost(1000) = %v", got)
	}
	if got := d.LaunchCost(); got != p.LaunchLat {
		t.Fatalf("LaunchCost = %v", got)
	}
	if got := d.SimilarityCost(100); got != 100*p.SimVertexLat {
		t.Fatalf("SimilarityCost(100) = %v", got)
	}
	withOverhead := d.InstallCost(0, 3)
	if withOverhead != 3*p.PkgOverheadLat {
		t.Fatalf("InstallCost(0,3) = %v", withOverhead)
	}
	if d.RepackCost(1e6, 1) <= d.RepackCost(1e6, 0) {
		t.Fatal("package overhead not charged")
	}
}

// TestScaledProfileEquivalence verifies the core scaling contract: charging
// scaled quantities on a scaled device equals charging paper quantities on
// the paper device, to within duration rounding.
func TestScaledProfileEquivalence(t *testing.T) {
	const byteScale, fileScale = 1024, 64
	paper := NewDevice(PaperProfile())
	scaled := NewDevice(PaperProfile().Scaled(byteScale, fileScale))

	paperBytes := int64(1913 * 1e6) // the Mini image
	scaledBytes := paperBytes / byteScale
	got := scaled.WriteCost(scaledBytes).Seconds()
	want := paper.WriteCost(paperBytes).Seconds()
	if math.Abs(got-want)/want > 1e-3 {
		t.Fatalf("scaled WriteCost = %.4fs, paper = %.4fs", got, want)
	}

	paperFiles := 75749
	scaledFiles := paperFiles / fileScale
	gotR := scaled.ResetCost(scaledFiles).Seconds()
	wantR := paper.ResetCost(paperFiles).Seconds()
	if math.Abs(gotR-wantR)/wantR > 2e-2 {
		t.Fatalf("scaled ResetCost = %.4fs, paper = %.4fs", gotR, wantR)
	}
}

func TestScaledPanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive scale")
		}
	}()
	PaperProfile().Scaled(0, 1)
}

// TestPaperCalibrationAnchors sanity-checks the profile against two anchor
// measurements from Table II so accidental retuning is caught: Mini publish
// (launch + scan + base store) ~39.5s and Mini retrieval (copy + launch +
// reset) ~24.6s.
func TestPaperCalibrationAnchors(t *testing.T) {
	d := NewDevice(PaperProfile())
	miniBytes := int64(1.913e9)
	miniFiles := 75749

	publish := d.LaunchCost() + d.ReadCost(miniBytes)/4 + d.WriteCost(miniBytes)
	if s := publish.Seconds(); s < 25 || s > 55 {
		t.Errorf("modeled Mini-like publish %.1fs outside [25,55]", s)
	}
	retrieve := d.ReadCost(miniBytes) + d.LaunchCost() + d.ResetCost(miniFiles)
	if s := retrieve.Seconds(); s < 15 || s > 35 {
		t.Errorf("modeled Mini-like retrieval %.1fs outside [15,35]", s)
	}
}
