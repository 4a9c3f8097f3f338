package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/device"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/metrics"
	"gamestreamsr/internal/render"
	"gamestreamsr/internal/roi"
	"gamestreamsr/internal/sr"
	"gamestreamsr/internal/stream"
	"gamestreamsr/internal/upscale"
)

// stream-720p: the paper's geometry over the real stream path. A G3 clip is
// rendered at 1280×720 in set-up (with a native 2560×1440 ground truth for
// a fixed subset of its frames); the timed loop replays it through
// roi.Detect and codec.EncodeInto in a MultiServer session, and a player
// client decodes, upscales bilinearly ×2, super-resolves the RoI and
// merges — the per-frame calls cmd/gssr-client makes.
const (
	s720W, s720H = 1280, 720
	s720Scale    = 2
	s720GOP      = 12 // gssr-server's default keyframe interval
	s720Q        = 6  // and quantizer
	// s720Clip is the rendered clip length; the source replays it
	// ping-pong, so every coded frame follows its neighbour in the motion
	// script.
	s720Clip = 6
	// s720Window bounds the frames in flight: frame i is released only
	// after frame i−2 is presented, so the server and client sides overlap
	// but no backlog builds.
	s720Window = 2
	// s720Warm frames fill caches and lazy state before timing starts.
	s720Warm = 2
	// s720KeepGT presented ground-truth frames are kept for the PSNR check;
	// the coded stream repeats with period lcm(GOP, ping-pong period), so
	// the first few cover every distinct presentation of them.
	s720KeepGT = 4
	// s720PSNRFloor is the per-frame quality floor of a presented frame
	// against the native render.
	s720PSNRFloor = 32.0
)

// s720GT lists the clip frames that get a native-resolution ground truth.
var s720GT = []int{0, 3}

// clipIndex maps stream frame i to a frame of an n-frame clip replayed
// ping-pong: 0 1 … n−1 n−2 … 1 0 1 …
func clipIndex(i, n int) int {
	if n < 2 {
		return 0
	}
	p := 2 * (n - 1)
	k := i % p
	if k < n {
		return k
	}
	return p - k
}

func isGT(ci int) bool {
	for _, j := range s720GT {
		if j == ci {
			return true
		}
	}
	return false
}

// fixture720 is the set-up result: the rendered clip, its ground truth,
// the server and the first player connection.
type fixture720 struct {
	clip   []render.Output
	gt     map[int]*frame.Image
	window int // RoI window the client announces
	srv    *benchServer
	cur    atomic.Pointer[phase720] // the phase new sessions serve
	client *benchClient             // the first phase's player
}

func setup720(opt options, tr *Tracer) (*fixture720, error) {
	g, err := games.ByID("G3")
	if err != nil {
		return nil, err
	}
	start := startFrame(opt.seed)
	fx := &fixture720{
		gt: map[int]*frame.Image{},
		// The s8 capability probe (Fig. 6 step ❶), without gssr-client's
		// 64 px clamp for its small demo streams.
		window: device.TabS8().MaxRoIWindow(device.RealTimeDeadline),
	}
	rd := &render.Renderer{}
	for j := 0; j < s720Clip; j++ {
		t0 := time.Now()
		fx.clip = append(fx.clip, g.Render(rd, start+j, s720W, s720H))
		tr.Record("setup.render", "setup", int64(j), -1, t0, time.Now())
	}
	for _, j := range s720GT {
		t0 := time.Now()
		fx.gt[j] = g.Render(rd, start+j, s720W*s720Scale, s720H*s720Scale).Color
		tr.Record("setup.ground_truth", "setup", int64(j), -1, t0, time.Now())
	}
	fx.cur.Store(newPhase720(nil, opt.seconds))
	fx.srv, err = startServer(stream.Accept{Width: s720W, Height: s720H, GOPSize: s720GOP, QStep: s720Q}, fx.newSource)
	if err != nil {
		return nil, err
	}
	if fx.client, err = dialPlayer(fx.srv.addr, fx.hello()); err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

func (fx *fixture720) hello() stream.Hello {
	return stream.Hello{Device: "s8", RoIWindow: fx.window, Scale: s720Scale, Version: stream.ProtocolVersion}
}

// newSource builds a session's source the way gssr-server does: a detector
// sized to the Hello's RoI window and an encoder on a per-session pool.
func (fx *fixture720) newSource(h stream.Hello) (stream.FrameSource, error) {
	if h.RoIWindow < 8 || h.RoIWindow > s720W || h.RoIWindow > s720H {
		return nil, fmt.Errorf("RoI window %d unusable for a %dx%d stream", h.RoIWindow, s720W, s720H)
	}
	det, err := roi.New(roi.Config{WindowW: h.RoIWindow, WindowH: h.RoIWindow})
	if err != nil {
		return nil, err
	}
	enc, err := codec.NewEncoder(codec.Config{Width: s720W, Height: s720H, GOPSize: s720GOP, QStep: s720Q})
	if err != nil {
		return nil, err
	}
	enc.SetPool(bufpool.New().Instrument(fx.srv.reg, "server"))
	return &clipSource{fx: fx, ph: fx.cur.Load(), det: det, enc: enc}, nil
}

// close stops the current phase's source, hangs up the set-up client and
// shuts the server down.
func (fx *fixture720) close() error {
	fx.cur.Load().halt()
	if fx.client != nil {
		fx.client.close()
	}
	if fx.srv == nil {
		return nil
	}
	return fx.srv.close()
}

// phase720 is one timed loop: one player session from start to Bye.
type phase720 struct {
	tr     *Tracer
	budget time.Duration
	t0     time.Time // loop start; written before start is closed
	start  chan struct{}
	stop   chan struct{}
	once   sync.Once
	window chan struct{} // in-flight slots

	mu     sync.Mutex
	frames []frameLog720 // indexed by frame
}

// frameLog720 is what the two sides record about one frame.
type frameLog720 struct {
	take, srcRet, present time.Time
	g2g                   int // span id (−1 untraced)
	bytes, roiPx          int
}

func newPhase720(tr *Tracer, budget time.Duration) *phase720 {
	return &phase720{
		tr: tr, budget: budget,
		start:  make(chan struct{}),
		stop:   make(chan struct{}),
		window: make(chan struct{}, s720Window),
	}
}

// halt makes the source end the session at its next frame.
func (p *phase720) halt() { p.once.Do(func() { close(p.stop) }) }

// finished reports whether the source should end the session before frame
// i: the time budget is spent and enough frames were timed, or the hard
// cap is reached.
func (p *phase720) finished(i int) bool {
	el := time.Since(p.t0)
	return (el >= p.budget && i >= s720Warm+minSamples(90)) || el >= maxLoop
}

// clipSource replays the clip through RoI detection and encoding — the
// work gssr-server's gameSource does after rendering.
type clipSource struct {
	fx      *fixture720
	ph      *phase720
	det     *roi.Detector
	enc     *codec.Encoder
	payload []byte
}

func (s *clipSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	p := s.ph
	select {
	case <-p.start:
	case <-p.stop:
		return nil, false, frame.Rect{}, io.EOF
	}
	if p.finished(i) {
		return nil, false, frame.Rect{}, io.EOF
	}
	tWait := time.Now()
	select {
	case p.window <- struct{}{}:
	case <-p.stop:
		return nil, false, frame.Rect{}, io.EOF
	}
	tTake := time.Now()
	out := s.fx.clip[clipIndex(i, len(s.fx.clip))]
	rect, err := s.det.Detect(out.Depth)
	if err != nil {
		return nil, false, frame.Rect{}, err
	}
	tDet := time.Now()
	data, ft, err := s.enc.EncodeInto(s.payload[:0], out.Color)
	if err != nil {
		return nil, false, frame.Rect{}, err
	}
	tEnc := time.Now()
	s.payload = data
	id := int64(i)
	p.tr.Record("server.wait", "server", id, -1, tWait, tTake)
	g2g := p.tr.Open("g2g", "frame", id, -1, tTake)
	p.tr.Record("roi.detect", "server", id, g2g, tTake, tDet)
	p.tr.Record("codec.encode", "server", id, g2g, tDet, tEnc)
	p.mu.Lock()
	p.frames = append(p.frames, frameLog720{take: tTake, srcRet: time.Now(), g2g: g2g, bytes: len(data)})
	p.mu.Unlock()
	return data, ft == codec.Intra, rect, nil
}

// kept720 is a presented ground-truth frame held for the PSNR check.
type kept720 struct {
	frame, clip int
	img         *frame.Image
}

// result720 is one phase's outcome.
type result720 struct {
	t0, end   time.Time
	sent      int
	presented int
	failed    int
	fps       float64
	g2g       []float64 // ms, timed frames
	roiPx     []float64
	bytes     []float64
	spend     goDelta
	kept      []kept720
}

// run starts the phase and drives the player until the server's Bye.
func (fx *fixture720) run(bc *benchClient, p *phase720, rep *report) (*result720, error) {
	p.t0 = time.Now()
	close(p.start)
	res, err := fx.present(bc, p, rep)
	if err != nil {
		p.halt()
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	res.sent = len(p.frames)
	res.t0 = p.t0
	var warmEnd time.Time
	for i, f := range p.frames {
		if f.present.IsZero() {
			continue
		}
		res.presented++
		if i == s720Warm-1 {
			warmEnd = f.present
		}
		if i >= s720Warm {
			res.g2g = append(res.g2g, ms(f.present.Sub(f.take)))
			res.roiPx = append(res.roiPx, float64(f.roiPx))
			res.bytes = append(res.bytes, float64(f.bytes))
			res.end = f.present
		}
	}
	if n := len(res.g2g); n > 0 && !warmEnd.IsZero() {
		res.fps = float64(n) / res.end.Sub(warmEnd).Seconds()
	}
	if res.presented != res.sent {
		rep.problem("%d frames sent, %d presented", res.sent, res.presented)
		res.failed += res.sent - res.presented
	}
	return res, nil
}

// present is the player loop: RecvFrame → Decode → bilinear ×2 → SR on the
// RoI → Merge, then the frame is presented and its in-flight slot freed.
func (fx *fixture720) present(bc *benchClient, p *phase720, rep *report) (*result720, error) {
	res := &result720{}
	dec := codec.NewDecoder()
	engine := sr.NewFast(sr.FastConfig{})
	w, h := bc.acc.Width, bc.acc.Height
	var warm goSample
	next := 0
	for {
		tCall := time.Now()
		pkt, err := bc.c.RecvFrame()
		tRecv := time.Now()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", next, err)
		}
		i := int(pkt.Index)
		if i != next {
			return nil, fmt.Errorf("frame %d arrived, want %d", i, next)
		}
		next++
		p.mu.Lock()
		fl := p.frames[i]
		p.mu.Unlock()
		id := int64(i)
		p.tr.Record("client.wait", "client", id, -1, tCall, tRecv)
		p.tr.Record("stream.wire", "wire", id, fl.g2g, fl.srcRet, tRecv)

		rect := pkt.RoI
		if !rect.In(w, h) || rect.W != fx.window || rect.H != fx.window {
			// Not presented: counted as failed with the other unpresented frames.
			rep.problem("frame %d: RoI %v not a %d² window inside %dx%d", i, rect, fx.window, w, h)
			<-p.window
			continue
		}
		df, err := dec.Decode(pkt.Payload)
		if err != nil {
			return nil, fmt.Errorf("frame %d: decode: %w", i, err)
		}
		tDec := time.Now()
		base, err := upscale.Resize(df.Image, w*s720Scale, h*s720Scale, upscale.Bilinear)
		if err != nil {
			return nil, fmt.Errorf("frame %d: bilinear: %w", i, err)
		}
		tBil := time.Now()
		sub, err := df.Image.SubImage(rect.X, rect.Y, rect.W, rect.H)
		if err != nil {
			return nil, fmt.Errorf("frame %d: RoI crop: %w", i, err)
		}
		hr, err := engine.Upscale(sub.Compact(), s720Scale)
		if err != nil {
			return nil, fmt.Errorf("frame %d: SR: %w", i, err)
		}
		tSR := time.Now()
		if err := upscale.Merge(base, hr, rect, s720Scale); err != nil {
			return nil, fmt.Errorf("frame %d: merge: %w", i, err)
		}
		tMerge := time.Now()
		<-p.window // presented: free the in-flight slot

		p.tr.Record("codec.decode", "client", id, fl.g2g, tRecv, tDec)
		p.tr.Record("upscale.bilinear", "client", id, fl.g2g, tDec, tBil)
		p.tr.Record("sr.roi", "client", id, fl.g2g, tBil, tSR)
		p.tr.Record("upscale.merge", "client", id, fl.g2g, tSR, tMerge)
		p.tr.Close(fl.g2g, tMerge)
		p.mu.Lock()
		p.frames[i].present = tMerge
		p.frames[i].roiPx = rect.Area()
		p.mu.Unlock()
		if ci := clipIndex(i, len(fx.clip)); isGT(ci) && len(res.kept) < s720KeepGT {
			res.kept = append(res.kept, kept720{frame: i, clip: ci, img: base})
		}
		if i == s720Warm-1 {
			warm = sampleGo()
		}
	}
	end := sampleGo()
	res.spend = deltaGo(warm, end, next-s720Warm)
	return res, nil
}

// checkQuality compares the kept presented frames with the native render:
// each must clear the floor; it returns their mean PSNR.
func (fx *fixture720) checkQuality(res *result720, rep *report) float64 {
	var ps []float64
	for _, k := range res.kept {
		v, err := metrics.PSNR(k.img, fx.gt[k.clip])
		if err != nil {
			rep.problem("frame %d: PSNR: %v", k.frame, err)
			res.failed++
			continue
		}
		if v < s720PSNRFloor {
			rep.problem("frame %d: PSNR %.2f dB below the %.1f dB floor", k.frame, v, s720PSNRFloor)
			res.failed++
		}
		ps = append(ps, v)
	}
	if len(ps) == 0 {
		rep.problem("no presented ground-truth frame to measure PSNR on")
	}
	return mean(ps)
}

func runStream720(opt options) (*report, error) {
	rep := newReport()
	reps := setupReps
	var tr *Tracer
	if opt.trace {
		tr = newTracer(time.Now())
		reps = 1 // setup_s is an end-to-end metric; the traced run skips the repeats
	}
	fx, setupS, err := medianSetup(reps, func() (*fixture720, error) { return setup720(opt, tr) },
		func(fx *fixture720) { _ = fx.close() })
	if err != nil {
		return nil, err
	}
	base, err := fx.run(fx.client, fx.cur.Load(), rep)
	if err != nil {
		fx.close()
		return nil, err
	}
	psnr := fx.checkQuality(base, rep)
	if !opt.trace {
		if err := fx.close(); err != nil {
			return nil, err
		}
		rep.attempted, rep.failed = base.sent, base.failed
		rss, err := rssPeakMB()
		if err != nil {
			return nil, err
		}
		p50, err := percentile(base.g2g, 50)
		if err != nil {
			return nil, err
		}
		rep.setE2E("setup_s", "s", setupS)
		rep.setE2E("fps", "1/s", base.fps)
		rep.setE2E("latency_p50_ms", "ms", p50)
		rep.setE2E("cpu_ms_per_frame", "ms", base.spend.cpuMsPerFrame)
		rep.setE2E("psnr_db", "dB", psnr)
		rep.setE2E("rss_peak_mb", "MiB", rss)
		return rep, nil
	}

	// The traced run: the same loop again on a second session, with spans.
	ph := newPhase720(tr, opt.seconds)
	fx.cur.Store(ph)
	bc, err := dialPlayer(fx.srv.addr, fx.hello())
	if err != nil {
		fx.close()
		return nil, err
	}
	traced, err := fx.run(bc, ph, rep)
	bc.close()
	if err != nil {
		fx.close()
		return nil, err
	}
	fx.checkQuality(traced, rep)
	if err := fx.close(); err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = base.sent+traced.sent, base.failed+traced.failed
	rep.spans = tr.Spans()
	origin := tr.origin
	checkNoSetupSpans(rep, rep.spans, base.t0.Sub(origin), base.end.Sub(origin))
	checkNoSetupSpans(rep, rep.spans, traced.t0.Sub(origin), traced.end.Sub(origin))

	zeroLayers(rep)
	if err := setTail(rep, traced.g2g, 90); err != nil {
		return nil, err
	}
	self := selfByName(rep.spans, s720Warm)
	dev, host := device.TabS8(), device.DefaultServer()
	lrPx, hrPx := s720W*s720H, s720W*s720H*s720Scale*s720Scale
	roiPx := median(traced.roiPx)
	rows := []struct {
		span, metric string
		model        time.Duration // s8 / host model; 0 = none
	}{
		{"roi.detect", "roi.detect_ms", host.RoIDetectLatency(lrPx)},
		{"codec.encode", "codec.encode_ms", host.EncodeLatency(lrPx)},
		{"stream.wire", "stream.wire_ms", 0},
		{"codec.decode", "codec.decode_ms", dev.HWDecodeLatency(lrPx)},
		{"upscale.bilinear", "upscale.bilinear_ms", dev.GPUBilinearLatency(hrPx)},
		{"sr.roi", "sr.roi_ms", dev.SRLatency(int(roiPx))},
		{"upscale.merge", "upscale.merge_ms", dev.MergeLatency()},
		{"server.wait", "server.wait_ms", 0},
		{"client.wait", "client.wait_ms", 0},
	}
	rep.table = append(rep.table,
		"stream-720p layers (median self time per frame, traced run; the model column is the",
		"internal/device s8/host MODEL, printed for comparison only and never gated):",
		fmt.Sprintf("  %-18s %12s %16s", "layer", "measured_ms", "modelled_s8_ms"))
	for _, r := range rows {
		v := medianDuration(self[r.span])
		rep.setLayer(r.metric, "ms", v)
		model := "-"
		if r.model > 0 {
			model = fmt.Sprintf("%.3f", ms(r.model))
		}
		rep.table = append(rep.table, fmt.Sprintf("  %-18s %12.3f %16s", r.span, v, model))
	}
	rep.setLayer("sr.roi_px", "px", roiPx)
	rep.setLayer("codec.bytes_per_frame", "B", mean(traced.bytes))
	hits, misses := fx.srv.reg.Counter("server_bufpool_hits_total").Value(), fx.srv.reg.Counter("server_bufpool_misses_total").Value()
	if hits+misses > 0 {
		rep.setLayer("bufpool.hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	}
	setGoLayers(rep, traced.spend)
	rep.setLayer("trace.overhead_pct", "%", (base.fps/traced.fps-1)*100)
	return rep, nil
}
