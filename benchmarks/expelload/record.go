package main

import (
	"fmt"
	"time"

	"expelliarmus/internal/vmi"
)

// opKind names the operations a workload times.
type opKind uint8

const (
	opRetrieve opKind = iota // request sent → last byte received and verified
	opPublish                // publish start (or due time) → Sync ack
	opRemove                 // remove start → Sync ack
	opFresh                  // writer Sync ack → new image verified from the follower
	numKinds
)

var kindNames = [numKinds]string{"retrieve", "publish", "remove", "fresh"}

// sample is one operation of the schedule as the load generator saw it.
type sample struct {
	kind       opKind
	op         int // schedule index, the identifier shared across ladder rungs
	start, end time.Duration
	bytes      int64 // verified image bytes moved
	image      string
	failed     bool
	traced     bool
}

// span is one call into a layer's public function, recorded from outside.
// Root spans (Parent -1) are the operations themselves. IDs are unique
// within a rung.
type span struct {
	Name    string `json:"name"` // layer.func
	Rung    string `json:"rung"`
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// phase is one stretch of the client loops: the untimed warm-up, or the
// measured window.
type phase struct {
	deadline time.Time
	// measured loops stop only between rounds, so every image of a round's
	// mix is weighted equally and a round's duration means the same thing
	// every time; the warm-up stops at the first op past its deadline.
	measured bool
	// closedDone is closed once every closed-loop client has returned;
	// the open-loop publisher runs until then.
	closedDone chan struct{}
}

// recorder collects one load goroutine's samples and spans of one phase in
// memory; nothing is written until the run ends.
type recorder struct {
	epoch   time.Time
	rung    string
	tracing bool // ladder run: record spans on every other op
	samples []sample
	spans   []span
	late    []time.Duration // open-loop generator lateness per op
	errs    []error         // first few failures, for the report

	ticks      int
	roundStart time.Time
	rounds     []float64 // seconds each completed round took
}

// tick is a closed loop's "may I run the next iteration?": false once the
// phase's deadline has passed — at any iteration during warm-up, only at a
// round boundary (every perRound iterations) when measured. It records
// each completed round's duration.
func (r *recorder) tick(ph *phase, perRound int) bool {
	now := time.Now()
	boundary := r.ticks%perRound == 0
	if boundary && r.ticks > 0 {
		r.rounds = append(r.rounds, now.Sub(r.roundStart).Seconds())
	}
	if (boundary || !ph.measured) && !now.Before(ph.deadline) {
		return false
	}
	if boundary {
		r.roundStart = now
	}
	r.ticks++
	return true
}

func (r *recorder) fail(err error) {
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

// traced reports whether op records spans. On a traced run every other
// operation does, so the two halves see the same period and the same mix
// and their medians give the tracing overhead.
func (r *recorder) traced(op int) bool { return r.tracing && (op/loadClients)%2 == 0 }

// opTrace times the calls one operation makes.
type opTrace struct {
	r      *recorder
	op     int
	root   int // span ID of the operation, -1 when not traced
	traced bool
}

// begin opens an operation of the schedule.
func (r *recorder) begin(kind opKind, op int) *opTrace {
	tr := &opTrace{r: r, op: op, root: -1, traced: r.traced(op)}
	if tr.traced {
		tr.root = len(r.spans)
		r.spans = append(r.spans, span{Name: "loadgen." + kindNames[kind], Rung: r.rung, Op: op, ID: tr.root, Parent: -1})
	}
	return tr
}

// call runs fn as a child span named layer.func.
func (tr *opTrace) call(name string, fn func() error) error {
	if !tr.traced {
		return fn()
	}
	id := len(tr.r.spans)
	tr.r.spans = append(tr.r.spans, span{Name: name, Rung: tr.r.rung, Op: tr.op, ID: id, Parent: tr.root})
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	tr.r.spans[id].StartNs = t0.Sub(tr.r.epoch).Nanoseconds()
	tr.r.spans[id].EndNs = t1.Sub(tr.r.epoch).Nanoseconds()
	return err
}

// end closes the operation and records its sample.
func (tr *opTrace) end(kind opKind, start, end time.Time, image string, bytes int64, err error) {
	r := tr.r
	s := sample{kind: kind, op: tr.op, start: start.Sub(r.epoch), end: end.Sub(r.epoch),
		bytes: bytes, image: image, failed: err != nil, traced: tr.traced}
	r.samples = append(r.samples, s)
	if tr.traced {
		r.spans[tr.root].StartNs = s.start.Nanoseconds()
		r.spans[tr.root].EndNs = s.end.Nanoseconds()
	}
	if err != nil {
		r.fail(fmt.Errorf("%s %s (op %d): %w", kindNames[kind], image, tr.op, err))
	}
}

// retrieve times one retrieval through t and verifies it: the stream's
// fingerprint must equal want. With want nil (a variant's first
// retrieval) the fingerprint is returned for the caller to keep.
func (r *recorder) retrieve(t target, op int, name string, want *fingerprint) fingerprint {
	tr := r.begin(opRetrieve, op)
	var sink fpWriter
	start := time.Now()
	err := tr.call(t.layer()+".Retrieve", func() error { return t.retrieve(name, &sink) })
	end := time.Now()
	if err == nil {
		err = checkFingerprint(sink.fp, want)
	}
	tr.end(opRetrieve, start, end, name, sink.fp.n, err)
	return sink.fp
}

func checkFingerprint(got fingerprint, want *fingerprint) error {
	if got.n == 0 {
		return fmt.Errorf("empty image stream")
	}
	if want != nil && got != *want {
		return fmt.Errorf("wrong bytes: got %d bytes crc %08x, reference %d bytes crc %08x", got.n, got.crc, want.n, want.crc)
	}
	return nil
}

// publish times one publish through t up to the Sync ack that makes it
// durable, counting from start (zero: now), and checks the publish
// report: wantBase says whether this image must have stored a new base.
// It returns when the Sync was acknowledged.
func (r *recorder) publish(t target, op int, img *vmi.Image, bytes int64, wantBase bool, start time.Time) time.Time {
	tr := r.begin(opPublish, op)
	if start.IsZero() {
		start = time.Now()
	}
	err := tr.call(t.layer()+".Publish", func() error {
		baseStored, err := t.publish(img)
		if err == nil && baseStored != wantBase {
			err = fmt.Errorf("publish report: BaseStored=%v, want %v", baseStored, wantBase)
		}
		return err
	})
	if err == nil {
		err = tr.call(t.layer()+".Sync", t.sync)
	}
	end := time.Now()
	tr.end(opPublish, start, end, img.Name, bytes, err)
	return end
}

// remove times one removal through t up to its Sync ack.
func (r *recorder) remove(t target, op int, name string) {
	tr := r.begin(opRemove, op)
	start := time.Now()
	err := tr.call(t.layer()+".Remove", func() error { return t.remove(name) })
	if err == nil {
		err = tr.call(t.layer()+".Sync", t.sync)
	}
	tr.end(opRemove, start, time.Now(), name, 0, err)
}
