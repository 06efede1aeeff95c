package core

import (
	"fmt"
	"sync"
	"testing"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

// TestRemoveAmidOtherClassRemovals: a removal's survivor scan lists every
// record, then reads them one by one, holding only the commit stripe of its
// own attribute class. A record of another class removed in between is
// gone, not an error: no record of another class is clustered on the
// removed record's base. Two classes each publish and remove one image in
// a loop next to a kept image of their own, while 2 000 bare records
// lengthen every scan.
func TestRemoveAmidOtherClassRemovals(t *testing.T) {
	b := builder.New(catalog.NewUniverse())
	s := NewSystem(testDev, Options{})
	var churn []*vmi.Image
	for _, class := range []string{"", "+other"} {
		keep, img := buildAs(t, b, "Mini", "a"+class, ""), buildAs(t, b, "Mini", "z"+class, "")
		keep.Base.Version += class
		img.Base.Version += class
		publishAll(t, s, keep)
		churn = append(churn, img)
	}
	for i := range 2000 {
		if err := s.repo.PutVMI(vmirepo.VMIRecord{Name: fmt.Sprintf("m-%04d", i), BaseID: "none"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, img := range churn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				if _, err := s.Publish(img.Clone()); err != nil {
					t.Errorf("publish %s: %v", img.Name, err)
					return
				}
				if err := s.Remove(img.Name); err != nil {
					t.Errorf("remove %s: %v", img.Name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
