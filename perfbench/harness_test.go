package main

import (
	"strings"
	"testing"
	"time"

	"gamestreamsr/internal/frame"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {90, 90}, {1, 1}, {100, 100}} {
		got, err := percentile(append([]float64(nil), xs...), c.p)
		if c.p > 90 {
			// p100 has nothing beyond it: refused.
			if err == nil {
				t.Errorf("p%g of 100 samples: want an error, got %v", c.p, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("median of no samples: want an error")
	}
	if got, err := percentile([]float64{3, 1, 2}, 50); err != nil || got != 2 {
		t.Errorf("median of 3 samples = %v, %v; want 2 (a median needs no tail)", got, err)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, p90) = %d, want 10", got)
	}
	if got := beyond(99, 90); got != 9 {
		t.Errorf("beyond(99, p90) = %d, want 9", got)
	}
	for _, c := range []struct {
		p    float64
		want int
	}{{90, 100}, {99, 1000}, {50, 20}} {
		if got := minSamples(c.p); got != c.want {
			t.Errorf("minSamples(p%g) = %d, want %d", c.p, got, c.want)
		}
	}
	xs := make([]float64, 99)
	if _, err := percentile(xs, 90); err == nil || !strings.Contains(err.Error(), "need 100") {
		t.Errorf("p90 of 99 samples: err = %v, want a need-100 error", err)
	}
	xs = make([]float64, 1000)
	if _, err := percentile(xs, 99); err != nil {
		t.Errorf("p99 of 1000 samples: %v", err)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples: want an error")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{Name: "frame", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "b", Parent: 0, Start: 20 * ms, End: 50 * ms},  // overlaps a: 10..50 counted once
		{Name: "c", Parent: 0, Start: 90 * ms, End: 120 * ms}, // clipped at the parent's end
		{Name: "d", Parent: 2, Start: 25 * ms, End: 35 * ms},  // grandchild: only b's self time shrinks
		{Name: "root2", Parent: -1, Start: 200 * ms, End: 210 * ms},
	}
	want := []time.Duration{50 * ms, 20 * ms, 20 * ms, 30 * ms, 10 * ms, 10 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfByNameSkipsWarmup(t *testing.T) {
	tr := newTracer(time.Unix(0, 0))
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }
	for f := int64(0); f < 4; f++ {
		p := tr.Open("g2g", "frame", f, -1, at(int(f)*100))
		tr.Record("sr.roi", "client", f, p, at(int(f)*100+10), at(int(f)*100+10+int(f)))
		tr.Close(p, at(int(f)*100+50))
	}
	by := selfByName(tr.Spans(), 2)
	if n := len(by["sr.roi"]); n != 2 {
		t.Fatalf("%d sr.roi spans after warm-up, want 2", n)
	}
	if got := by["g2g"][1]; got != 47*time.Millisecond {
		t.Errorf("g2g self time of frame 3 = %v, want 47ms", got)
	}
	var nilTracer *Tracer
	if id := nilTracer.Record("x", "y", 0, -1, at(0), at(1)); id != -1 || nilTracer.Spans() != nil {
		t.Error("a nil tracer must record nothing")
	}
}

// receiptOf builds a receipt from arrival offsets; a negative offset is a
// frame that never arrived.
func receiptOf(t0 time.Time, offs []time.Duration, corrupt int) *receipt {
	r := &receipt{recv: make([]time.Time, len(offs)), corrupt: corrupt}
	for i, o := range offs {
		if o >= 0 {
			r.recv[i] = t0.Add(o)
			r.frames++
		}
	}
	return r
}

func TestOpenLoopChargesFromDueTime(t *testing.T) {
	ms := time.Millisecond
	t0 := time.Unix(100, 0)
	due := []time.Time{t0, t0.Add(10 * ms), t0.Add(20 * ms), t0.Add(30 * ms)}
	// Frame 1 stalls until 35 ms; frame 2, due at 20 ms, queues behind it
	// and arrives at 36 ms: it is charged 16 ms from its due time, not the
	// 1 ms since the stall cleared. The spectator never gets frame 3.
	pub := receiptOf(t0, []time.Duration{1 * ms, 35 * ms, 36 * ms, 31 * ms}, 0)
	spec := receiptOf(t0, []time.Duration{2 * ms, 35 * ms, 37 * ms, -1}, 0)
	o := accountOpenLoop(due, pub, spec)
	wantFanout := []float64{2, 25, 17}
	if len(o.fanout) != len(wantFanout) {
		t.Fatalf("fanout = %v, want %v", o.fanout, wantFanout)
	}
	for i, w := range wantFanout {
		if o.fanout[i] != w {
			t.Errorf("fanout[%d] = %v ms, want %v", i, o.fanout[i], w)
		}
	}
	if o.direct[2] != 16 {
		t.Errorf("direct[2] = %v ms, want 16 (due time, not stall end)", o.direct[2])
	}
	if o.extra[0] != 1 || len(o.extra) != 3 {
		t.Errorf("extra = %v, want [1 0 1]", o.extra)
	}
	if !o.end.Equal(t0.Add(37 * ms)) {
		t.Errorf("end = %v, want the last spectator arrival", o.end.Sub(t0))
	}
	if o.failed != 1 {
		t.Errorf("failed = %d, want 1 (frame 3 missing at the spectator)", o.failed)
	}
}

func TestFailureCounting(t *testing.T) {
	ms := time.Millisecond
	t0 := time.Unix(100, 0)
	due := []time.Time{t0, t0.Add(10 * ms), t0.Add(20 * ms)}
	pub := receiptOf(t0, []time.Duration{1 * ms, -1, 21 * ms}, 1) // one lost, one corrupt
	spec := receiptOf(t0, []time.Duration{-1, -1, 22 * ms}, 0)    // frame 1 missing at both counts once
	if got := accountOpenLoop(due, pub, spec).failed; got != 3 {
		t.Errorf("failed = %d, want 3 (frames 0 and 1 missing, one corrupt payload)", got)
	}

	for _, c := range []struct {
		specFrames int
		dropped    int64
		corrupt    int
		problems   int
	}{
		{10, 0, 0, 0}, // clean
		{8, 2, 0, 0},  // gaps the relay counted as drops are allowed
		{8, 1, 0, 1},  // an uncounted gap is not
		{10, 0, 1, 1}, // a corrupted payload never is
	} {
		rep := newReport()
		res := &result180{
			ph:   &phase180{n: 10},
			pub:  &receipt{frames: 10, corrupt: c.corrupt},
			spec: &receipt{frames: c.specFrames},
		}
		res.check(rep, c.dropped)
		if len(rep.problems) != c.problems {
			t.Errorf("spectator %d/10, %d counted drops, %d corrupt: problems %q, want %d",
				c.specFrames, c.dropped, c.corrupt, rep.problems, c.problems)
		}
	}
}

func TestOpenLoopLateness(t *testing.T) {
	clip := &encodedClip{payload: [][]byte{{1}}, key: []bool{true}, roi: []frame.Rect{{}}, sum: []uint32{0}}
	p := newPhase180(clip, 3, nil)
	p.period = 10 * time.Millisecond
	p.t0 = time.Now().Add(-25 * time.Millisecond) // the generator is already behind
	close(p.start)
	for i := 0; i < 3; i++ {
		if _, key, _, err := p.NextFrame(i); err != nil || !key {
			t.Fatalf("frame %d: key %v, err %v", i, key, err)
		}
	}
	if _, _, _, err := p.NextFrame(3); err == nil {
		t.Fatal("frame 3 of 3: want EOF")
	}
	for i, want := range []time.Duration{25, 15, 5} {
		if !p.due[i].Equal(p.t0.Add(time.Duration(i) * p.period)) {
			t.Errorf("due[%d] = t0%+v, want t0+%v", i, p.due[i].Sub(p.t0), time.Duration(i)*p.period)
		}
		if p.late[i] < want*time.Millisecond {
			t.Errorf("late[%d] = %v, want ≥ %vms", i, p.late[i], want)
		}
	}

	// On time: a future due time is waited for, so lateness stays small.
	p = newPhase180(clip, 1, nil)
	p.t0 = time.Now().Add(20 * time.Millisecond)
	close(p.start)
	if _, _, _, err := p.NextFrame(0); err != nil {
		t.Fatal(err)
	}
	if time.Now().Before(p.due[0]) || p.late[0] < 0 {
		t.Errorf("frame released %v before its due time", -p.late[0])
	}
}

func TestClipIndexPingPong(t *testing.T) {
	var got []int
	for i := 0; i < 12; i++ {
		got = append(got, clipIndex(i, 4))
	}
	want := []int{0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("clipIndex over 4 frames = %v, want %v", got, want)
		}
	}
}

func TestMedianSetupKeepsLastAndClosesTheRest(t *testing.T) {
	n, closed := 0, 0
	v, med, err := medianSetup(3, func() (int, error) { n++; return n, nil }, func(int) { closed++ })
	if err != nil || v != 3 || closed != 2 || med < 0 {
		t.Errorf("kept %d, closed %d, median %v, err %v; want kept 3, closed 2", v, closed, med, err)
	}
}
