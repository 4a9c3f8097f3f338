package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/metrics"
	"gamestreamsr/internal/render"
	"gamestreamsr/internal/roi"
	"gamestreamsr/internal/stream"
)

// relay-180p: the wire and relay path without the compute kernels. A G3
// 320×180 clip is encoded once in set-up; in the timed loop a publisher
// session replays the payloads open-loop at a fixed rate, the relay fans
// them out to one spectator, and both receivers only receive and hash.
const (
	r180W, r180H = 320, 180
	r180GOP      = 12
	r180Q        = 6
	// r180Clip frames are encoded once (whole GOPs, so every replay keeps
	// the intra/inter pattern).
	r180Clip = 4 * r180GOP
	// r180Window is the RoI window of the publisher's Hello: gssr-client's
	// clamp for 320×180 demo streams.
	r180Window = 64
	// r180Rate is the offered frame rate. On a 2-core Xeon @ 2.10 GHz the
	// relay delivered these payloads at 2000 frames/s with no drop and a
	// 0.7 ms median fan-out; drops began near 4000 frames/s. 240 frames/s
	// is well under that capacity.
	r180Rate = 240
	// r180MinFrames keeps p99 on at least ten samples beyond it.
	r180MinFrames = 1000
	r180Channel   = "bench"
)

// encodedClip is the pre-encoded stream the publisher replays.
type encodedClip struct {
	payload [][]byte
	key     []bool
	roi     []frame.Rect
	sum     []uint32
	bytes   float64 // mean payload size
	psnr    float64 // mean decoded-vs-rendered PSNR
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeClip renders and encodes the clip and measures its decoded quality.
func encodeClip(seed int64, tr *Tracer) (*encodedClip, error) {
	g, err := games.ByID("G3")
	if err != nil {
		return nil, err
	}
	det, err := roi.New(roi.Config{WindowW: r180Window, WindowH: r180Window})
	if err != nil {
		return nil, err
	}
	enc, err := codec.NewEncoder(codec.Config{Width: r180W, Height: r180H, GOPSize: r180GOP, QStep: r180Q})
	if err != nil {
		return nil, err
	}
	dec := codec.NewDecoder()
	rd := &render.Renderer{}
	c := &encodedClip{}
	var out render.Output
	var ps []float64
	start := startFrame(seed)
	for j := 0; j < r180Clip; j++ {
		t0 := time.Now()
		g.RenderInto(&out, rd, start+j, r180W, r180H)
		tr.Record("setup.render", "setup", int64(j), -1, t0, time.Now())
		rect, err := det.Detect(out.Depth)
		if err != nil {
			return nil, err
		}
		data, ft, err := enc.Encode(out.Color)
		if err != nil {
			return nil, err
		}
		df, err := dec.Decode(data)
		if err != nil {
			return nil, err
		}
		p, err := metrics.PSNR(df.Image, out.Color)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
		c.payload = append(c.payload, data)
		c.key = append(c.key, ft == codec.Intra)
		c.roi = append(c.roi, rect)
		c.sum = append(c.sum, crc32.Checksum(data, castagnoli))
		c.bytes += float64(len(data)) / r180Clip
	}
	c.psnr = mean(ps)
	return c, nil
}

// fixture180 is the set-up result: the encoded clip, the server, the
// publisher and the spectator.
type fixture180 struct {
	clip      *encodedClip
	srv       *benchServer
	cur       atomic.Pointer[phase180] // the phase the publisher's session replays
	pub, spec *benchClient
}

func setup180(opt options, tr *Tracer) (*fixture180, error) {
	clip, err := encodeClip(opt.seed, tr)
	if err != nil {
		return nil, err
	}
	n := max(r180MinFrames, int(math.Ceil(opt.seconds.Seconds()*r180Rate)))
	fx := &fixture180{clip: clip}
	fx.cur.Store(newPhase180(clip, n, tr))
	fx.srv, err = startServer(stream.Accept{Width: r180W, Height: r180H, GOPSize: r180GOP, QStep: r180Q},
		func(stream.Hello) (stream.FrameSource, error) { return fx.cur.Load(), nil })
	if err != nil {
		return nil, err
	}
	if fx.pub, err = dialPlayer(fx.srv.addr, stream.Hello{Device: "s8", RoIWindow: r180Window, Scale: 2,
		Version: stream.ProtocolVersion, Channel: r180Channel}); err != nil {
		fx.close()
		return nil, err
	}
	// The spectator joins before frame 0: the source waits for the start.
	if fx.spec, err = dialSpectator(fx.srv.addr, stream.Subscribe{Channel: r180Channel, Device: "s8",
		Version: stream.ProtocolVersion}); err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

func (fx *fixture180) close() error {
	fx.cur.Load().halt()
	for _, c := range []*benchClient{fx.spec, fx.pub} {
		if c != nil {
			c.close()
		}
	}
	if fx.srv == nil {
		return nil
	}
	return fx.srv.close()
}

// phase180 is the open-loop publisher source and the receivers' log.
type phase180 struct {
	clip   *encodedClip
	n      int // frames to publish
	period time.Duration
	tr     *Tracer
	t0     time.Time // written before start is closed
	start  chan struct{}
	stop   chan struct{}
	once   sync.Once

	mu   sync.Mutex
	due  []time.Time // per frame
	late []time.Duration
}

func newPhase180(clip *encodedClip, n int, tr *Tracer) *phase180 {
	return &phase180{
		clip: clip, n: n, tr: tr,
		period: time.Second / r180Rate,
		start:  make(chan struct{}),
		stop:   make(chan struct{}),
	}
}

func (p *phase180) halt() { p.once.Do(func() { close(p.stop) }) }

// NextFrame releases frame i at its due time t0 + i·period, whatever the
// relay's state: the generator never waits for the system.
func (p *phase180) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	select {
	case <-p.start:
	case <-p.stop:
		return nil, false, frame.Rect{}, io.EOF
	}
	if i >= p.n {
		return nil, false, frame.Rect{}, io.EOF
	}
	due := p.t0.Add(time.Duration(i) * p.period)
	if d := time.Until(due); d > 0 {
		select {
		case <-time.After(d):
		case <-p.stop:
			return nil, false, frame.Rect{}, io.EOF
		}
	}
	now := time.Now()
	p.tr.Record("loadgen.late", "publisher", int64(i), -1, due, now)
	p.mu.Lock()
	p.due = append(p.due, due)
	p.late = append(p.late, now.Sub(due))
	p.mu.Unlock()
	j := i % len(p.clip.payload)
	return p.clip.payload[j], p.clip.key[j], p.clip.roi[j], nil
}

// receipt is what a receiver saw.
type receipt struct {
	recv    []time.Time // by frame index; zero = not received
	corrupt int
	frames  int
	last    int // highest index received
	err     error
}

// receive drains one connection until Bye, hashing every payload against
// the clip and logging its arrival time.
func (p *phase180) receive(bc *benchClient, lane string) *receipt {
	r := &receipt{recv: make([]time.Time, p.n), last: -1}
	for {
		pkt, err := bc.c.RecvFrame()
		t := time.Now()
		if errors.Is(err, io.EOF) {
			return r
		}
		if err != nil {
			r.err = err
			return r
		}
		i := int(pkt.Index)
		if i >= p.n || i <= r.last {
			r.err = fmt.Errorf("%s: frame %d after frame %d", lane, i, r.last)
			return r
		}
		r.recv[i], r.last = t, i
		r.frames++
		j := i % len(p.clip.payload)
		if crc32.Checksum(pkt.Payload, castagnoli) != p.clip.sum[j] || len(pkt.Payload) != len(p.clip.payload[j]) ||
			pkt.Keyenc != p.clip.key[j] || pkt.RoI != p.clip.roi[j] {
			r.corrupt++
		}
		p.mu.Lock()
		due := p.due[i]
		p.mu.Unlock()
		p.tr.Record(lane+".recv", lane, int64(i), -1, due, t)
	}
}

func runRelay180(opt options) (*report, error) {
	rep := newReport()
	reps := setupReps
	var tr *Tracer
	if opt.trace {
		tr = newTracer(time.Now())
		reps = 1
	}
	fx, setupS, err := medianSetup(reps, func() (*fixture180, error) { return setup180(opt, tr) },
		func(fx *fixture180) { _ = fx.close() })
	if err != nil {
		return nil, err
	}
	base, err := fx.run()
	if err != nil {
		fx.close()
		return nil, err
	}
	relayCounters := func() (dropped, dropToKey, evicted int64) {
		return fx.srv.reg.Counter("stream_relay_dropped_frames_total").Value(),
			fx.srv.reg.Counter("stream_relay_drop_to_key_total").Value(),
			fx.srv.reg.Counter("stream_relay_subscribers_evicted_total").Value()
	}
	dropped, dropToKey, evicted := relayCounters()
	base.check(rep, dropped)
	if !opt.trace {
		if err := fx.close(); err != nil {
			return nil, err
		}
		rss, err := rssPeakMB()
		if err != nil {
			return nil, err
		}
		p50, err := percentile(base.fanout, 50)
		if err != nil {
			return nil, err
		}
		rep.attempted, rep.failed = base.ph.n, base.failed
		rep.setE2E("setup_s", "s", setupS)
		rep.setE2E("fps", "1/s", base.fps)
		rep.setE2E("latency_p50_ms", "ms", p50)
		rep.setE2E("cpu_ms_per_frame", "ms", base.spend.cpuMsPerFrame)
		rep.setE2E("psnr_db", "dB", fx.clip.psnr)
		rep.setE2E("rss_peak_mb", "MiB", rss)
		return rep, nil
	}

	// The traced run: a second publisher/spectator pair on the same server.
	if err := fx.redial(newPhase180(fx.clip, base.ph.n, tr)); err != nil {
		fx.close()
		return nil, err
	}
	traced, err := fx.run()
	if err != nil {
		fx.close()
		return nil, err
	}
	d2, k2, e2 := relayCounters()
	traced.check(rep, d2-dropped)
	if err := fx.close(); err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = base.ph.n+traced.ph.n, base.failed+traced.failed
	rep.spans = tr.Spans()
	checkNoSetupSpans(rep, rep.spans, base.ph.t0.Sub(tr.origin), base.end.Sub(tr.origin))
	checkNoSetupSpans(rep, rep.spans, traced.ph.t0.Sub(tr.origin), traced.end.Sub(tr.origin))

	zeroLayers(rep)
	if err := setTail(rep, traced.fanout, 99); err != nil {
		return nil, err
	}
	rep.setLayer("codec.bytes_per_frame", "B", fx.clip.bytes)
	rep.setLayer("stream.direct_ms", "ms", median(traced.direct))
	rep.setLayer("relay.extra_ms", "ms", median(traced.extra))
	rep.setLayer("relay.dropped", "count", float64(d2-dropped))
	rep.setLayer("relay.drop_to_key", "count", float64(k2-dropToKey))
	rep.setLayer("relay.evicted", "count", float64(e2-evicted))
	rep.setLayer("relay.delivered_ratio", "ratio", float64(traced.spec.frames)/float64(traced.ph.n))
	late, err := percentile(traced.late, 99)
	if err != nil {
		return nil, err
	}
	rep.setLayer("loadgen.late_p99_ms", "ms", late)
	setGoLayers(rep, traced.spend)
	rep.setLayer("trace.overhead_pct", "%", (traced.spend.cpuMsPerFrame/base.spend.cpuMsPerFrame-1)*100)
	return rep, nil
}

// redial points the server at a fresh phase and reconnects both receivers.
func (fx *fixture180) redial(ph *phase180) error {
	fx.pub.close()
	fx.spec.close()
	fx.pub, fx.spec = nil, nil
	fx.cur.Store(ph)
	var err error
	if fx.pub, err = dialPlayer(fx.srv.addr, stream.Hello{Device: "s8", RoIWindow: r180Window, Scale: 2,
		Version: stream.ProtocolVersion, Channel: r180Channel}); err != nil {
		return err
	}
	fx.spec, err = dialSpectator(fx.srv.addr, stream.Subscribe{Channel: r180Channel, Device: "s8", Version: stream.ProtocolVersion})
	return err
}

// result180 is one phase's outcome.
type result180 struct {
	openLoop
	ph        *phase180
	pub, spec *receipt
	fps       float64
	late      []float64 // ms
	spend     goDelta
}

// openLoop is the due-time accounting of one open-loop phase: every
// latency counts from the frame's scheduled due time, so a stall is also
// charged to the frames that queued behind it.
type openLoop struct {
	fanout []float64 // ms, due → spectator receive
	direct []float64 // ms, due → publisher-side receive
	extra  []float64 // ms, publisher-side receive → spectator receive
	end    time.Time // last spectator receive
	failed int       // frames a receiver missed or got corrupted
}

func accountOpenLoop(due []time.Time, pub, spec *receipt) openLoop {
	var o openLoop
	for i, d := range due {
		pt, st := pub.recv[i], spec.recv[i]
		if !st.IsZero() {
			o.fanout = append(o.fanout, ms(st.Sub(d)))
			if st.After(o.end) {
				o.end = st
			}
		}
		if !pt.IsZero() {
			o.direct = append(o.direct, ms(pt.Sub(d)))
		}
		if !pt.IsZero() && !st.IsZero() {
			o.extra = append(o.extra, ms(st.Sub(pt)))
		}
		if pt.IsZero() || st.IsZero() {
			o.failed++
		}
	}
	o.failed += pub.corrupt + spec.corrupt
	return o
}

// run releases the source and drains both receivers until the channel
// closes.
func (fx *fixture180) run() (*result180, error) {
	p := fx.cur.Load()
	res := &result180{ph: p}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); res.pub = p.receive(fx.pub, "publisher") }()
	go func() { defer wg.Done(); res.spec = p.receive(fx.spec, "spectator") }()
	before := sampleGo()
	p.t0 = time.Now()
	close(p.start)
	wg.Wait()
	res.spend = deltaGo(before, sampleGo(), p.n)
	for _, r := range []*receipt{res.pub, res.spec} {
		if r.err != nil {
			p.halt()
			return nil, r.err
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.due) != p.n {
		return nil, fmt.Errorf("published %d of %d frames", len(p.due), p.n)
	}
	res.openLoop = accountOpenLoop(p.due, res.pub, res.spec)
	for _, l := range p.late {
		res.late = append(res.late, ms(l))
	}
	res.fps = float64(res.spec.frames) / res.end.Sub(p.t0).Seconds()
	return res, nil
}

// check applies the relay's correctness rules: every payload intact, the
// publisher's stream complete, and the spectator's gaps exactly the
// relay's counted drops.
func (res *result180) check(rep *report, dropped int64) {
	if c := res.pub.corrupt + res.spec.corrupt; c > 0 {
		rep.problem("%d received payloads differ from the encoded clip", c)
	}
	if res.pub.frames != res.ph.n {
		rep.problem("publisher received %d of %d frames", res.pub.frames, res.ph.n)
	}
	if missing := int64(res.ph.n - res.spec.frames); missing != dropped {
		rep.problem("spectator missed %d frames, relay counted %d drops", missing, dropped)
	}
}
