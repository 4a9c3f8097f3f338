package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"gamestreamsr/internal/faultnet"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/stream"
	"gamestreamsr/internal/telemetry"
)

// The chaos harness (BENCH_chaos.json): a publisher channel with spectators
// over real TCP, where the publisher's connection is killed mid-GOP by a
// scripted faultnet reset and then redialled with its resume token. The
// smoke test pins the qualitative contract — the channel parks instead of
// dying, every spectator rides through the drop with zero disconnects, and
// post-reclaim frames are byte-identical to a fault-free run. The full run
// quantifies the two headline numbers: reconnect-to-first-frame latency and
// the spectator stall p99 across drop/reclaim cycles.

// chaosSource streams paced frames whose payloads are a pure function of
// the frame index: a reclaimed publisher's fresh source regenerates the
// exact bytes of the first generation, so spectators can assert
// byte-identity across the drop.
type chaosSource struct {
	frames, gop, size int
	pace              time.Duration
}

func (s *chaosSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	if i >= s.frames {
		return nil, false, frame.Rect{}, io.EOF
	}
	if s.pace > 0 && i > 0 {
		time.Sleep(s.pace)
	}
	return chaosFrame(i, s.size), i%s.gop == 0, frame.Rect{}, nil
}

// chaosFrame is the deterministic payload for frame i — what every
// spectator must receive for that index, before and after the reclaim.
func chaosFrame(i, size int) []byte {
	p := make([]byte, size)
	for j := range p {
		p[j] = byte(i*131 + j*7)
	}
	return p
}

// pubResult is one publisher generation's outcome.
type pubResult struct {
	token  string        // resume token from the Accept
	frames int           // frames drained before the session ended
	ttff   time.Duration // dial → first frame (handshake + reclaim included)
	err    error         // terminal error; nil on clean EOF
}

// publishResumable dials addr and publishes channel, replaying token when
// reconnecting. A non-nil script wraps the dialled connection in faultnet —
// the scripted fault (e.g. a byte-triggered reset) is what ends the
// generation uncleanly and parks the channel.
func publishResumable(addr, channel, token string, script *faultnet.Script) pubResult {
	var res pubResult
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		res.err = err
		return res
	}
	var conn net.Conn = raw
	if script != nil {
		conn = faultnet.Wrap(raw, *script)
	}
	defer conn.Close()
	c := stream.NewClient(conn)
	t0 := time.Now()
	cfg, err := c.Handshake(stream.Hello{
		Device: "pub", RoIWindow: 16, Scale: 2,
		Version: stream.ProtocolVersion, Channel: channel, ResumeToken: token,
	})
	if err != nil {
		res.err = err
		return res
	}
	res.token = cfg.Token
	for {
		if _, err := c.RecvFrame(); err != nil {
			if err == io.EOF {
				err = nil
			}
			res.err = err
			return res
		}
		if res.frames == 0 {
			res.ttff = time.Since(t0)
		}
		res.frames++
	}
}

// chaosSpectator is one spectator's ride through the drop/reclaim cycles.
// Only its own goroutine writes until wg.Wait orders the reads.
type chaosSpectator struct {
	frames     int
	badPayload int             // frames whose bytes differ from chaosFrame(Index)
	gaps       []time.Duration // inter-frame arrival gaps (the stall signal)
	postDrop   int             // frames received after the first index rollback
	err        error
}

// spectateChaos joins channel and drains it to EOF, checking every payload
// against the deterministic source and recording inter-frame gaps. An index
// rollback (the reclaimed publisher's fresh source restarting at 0) marks
// the post-drop phase.
func spectateChaos(addr, channel, device string, size int) chaosSpectator {
	var sp chaosSpectator
	var last time.Time
	prevIdx := -1
	dropped := false
	res := spectate(addr, channel, device, func(_ int, pkt stream.FramePacket) bool {
		now := time.Now()
		if !last.IsZero() {
			sp.gaps = append(sp.gaps, now.Sub(last))
		}
		last = now
		if string(pkt.Payload) != string(chaosFrame(int(pkt.Index), size)) {
			sp.badPayload++
		}
		if int(pkt.Index) < prevIdx {
			dropped = true
		}
		prevIdx = int(pkt.Index)
		sp.frames++
		if dropped {
			sp.postDrop++
		}
		return true
	})
	sp.err = res.err
	return sp
}

// gapPercentile returns the p-th percentile of the pooled inter-frame gaps.
func gapPercentile(gaps []time.Duration, p float64) time.Duration {
	if len(gaps) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), gaps...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p / 100 * float64(len(s)-1))
	return s[idx]
}

// chaosRun holds one drop/reclaim experiment's measurements.
type chaosRun struct {
	reconnectTTFF []time.Duration // per reconnect: redial → first frame on the new session
	specs         []chaosSpectator
	reg           *telemetry.Registry
}

// runChaos drives nDrops publisher kill/reclaim cycles against nSpecs
// spectators: each doomed generation carries a byte-triggered faultnet
// reset, the final generation streams fault-free to EOF. The channel must
// survive every drop — spectators attach once and ride to the clean end.
func runChaos(t testing.TB, nSpecs, nDrops, nFrames, gop, size int, pace time.Duration, resetAt int64) chaosRun {
	t.Helper()
	const channel = "arena"
	reg := telemetry.NewRegistry()
	srv := &stream.MultiServer{
		Accept:          stream.Accept{Width: 32, Height: 32, GOPSize: gop, QStep: 6},
		MaxFrames:       nFrames,
		MaxSessions:     4,
		MaxSubscribers:  16,
		SubscriberQueue: 32,
		Metrics:         reg,
		IdleTimeout:     -1,               // harness clients do not heartbeat
		ParkGrace:       10 * time.Second, // far above any reconnect in the run
		NewSource: func(stream.Hello) (stream.FrameSource, error) {
			return &chaosSource{frames: nFrames, gop: gop, size: size, pace: pace}, nil
		},
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	addr := l.Addr().String()

	run := chaosRun{reg: reg, specs: make([]chaosSpectator, nSpecs)}

	// Generation 0: doomed from the start. Spectators attach once its
	// channel is live and stay attached across every subsequent drop.
	pubDone := make(chan pubResult, 1)
	script := &faultnet.Script{Events: []faultnet.Event{{AtBytes: resetAt, Action: faultnet.Reset}}}
	go func() { pubDone <- publishResumable(addr, channel, "", script) }()
	waitGauge(t, reg, "stream_relay_channels_active", 1, 10*time.Second)

	var wg sync.WaitGroup
	for i := 0; i < nSpecs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run.specs[i] = spectateChaos(addr, channel, fmt.Sprintf("spec-%d", i), size)
		}(i)
	}
	waitGauge(t, reg, "stream_subscribers_active", int64(nSpecs), 10*time.Second)

	token := ""
	for drop := 0; drop < nDrops; drop++ {
		gen := <-pubDone
		if gen.err == nil {
			t.Fatalf("drop %d: doomed publisher generation ended cleanly after %d frames", drop, gen.frames)
		}
		if gen.token == "" {
			t.Fatalf("drop %d: publisher got no resume token", drop)
		}
		token = gen.token
		waitCounter(t, reg, "stream_relay_channel_parks_total", int64(drop+1), 10*time.Second)

		// Reconnect with the resume token; every cycle but the last is
		// doomed again.
		script := &faultnet.Script{Events: []faultnet.Event{{AtBytes: resetAt, Action: faultnet.Reset}}}
		if drop == nDrops-1 {
			script = nil
		}
		next := publishResumable(addr, channel, token, script)
		if next.frames == 0 {
			t.Fatalf("drop %d: reclaimed publisher got no frames (err %v)", drop, next.err)
		}
		run.reconnectTTFF = append(run.reconnectTTFF, next.ttff)
		if next.token != token {
			t.Fatalf("drop %d: resume token changed across reconnect: %q → %q", drop, token, next.token)
		}
		waitCounter(t, reg, "stream_relay_channel_reclaims_total", int64(drop+1), 10*time.Second)
		pubDone <- next
	}
	final := <-pubDone
	if final.err != nil {
		t.Fatalf("final publisher generation: %v", final.err)
	}
	if final.frames != nFrames {
		t.Fatalf("final generation drained %d frames, want %d", final.frames, nFrames)
	}

	wg.Wait()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	<-serveDone
	return run
}

// TestChaosSmoke is the CI-sized chaos e2e at the command level: one
// scripted mid-GOP publisher reset, 4 spectators, reclaim via resume token.
// No spectator may disconnect, every received payload must match the
// deterministic source byte for byte, and the relay counters must show
// exactly one park and one reclaim with zero evictions and zero expiries.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos smoke is not -short")
	}
	const (
		nSpecs  = 4
		nFrames = 60
		gop     = 5
		size    = 2 << 10
	)
	// ~24 frames of ~2KB cross 48KB mid-GOP: the reset lands inside a GOP,
	// so the reclaim's keyframe re-seed is doing real work.
	run := runChaos(t, nSpecs, 1, nFrames, gop, size, 3*time.Millisecond, 48<<10)

	for i, sp := range run.specs {
		if sp.err != nil {
			t.Errorf("spectator %d disconnected: %v", i, sp.err)
		}
		if sp.badPayload > 0 {
			t.Errorf("spectator %d: %d frames differ from the deterministic source", i, sp.badPayload)
		}
		if sp.postDrop == 0 {
			t.Errorf("spectator %d saw no post-reclaim frames (got %d total)", i, sp.frames)
		}
		if sp.frames <= nFrames/2 {
			t.Errorf("spectator %d got only %d frames", i, sp.frames)
		}
	}
	if len(run.reconnectTTFF) != 1 {
		t.Fatalf("measured %d reconnects, want 1", len(run.reconnectTTFF))
	}
	t.Logf("reconnect-to-first-frame: %v", run.reconnectTTFF[0])
	s := run.reg.Snapshot()
	for name, want := range map[string]int64{
		"stream_relay_channel_parks_total":       1,
		"stream_relay_channel_reclaims_total":    1,
		"stream_relay_park_expired_total":        0,
		"stream_relay_subscribers_evicted_total": 0,
	} {
		if got := s.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := s.Gauge("stream_relay_channels_parked"); got != 0 {
		t.Errorf("channels still parked after the run: %d", got)
	}
}

// TestChaosFull is the BENCH_chaos.json run: 3 drop/reclaim cycles against
// 4 spectators, quantifying reconnect-to-first-frame latency and the
// spectator stall p99 (pooled inter-frame gaps — the park window is the
// tail). Gated behind CHAOS_FULL=1.
func TestChaosFull(t *testing.T) {
	if os.Getenv("CHAOS_FULL") == "" {
		t.Skip("set CHAOS_FULL=1 to run the recorded chaos benchmark")
	}
	const (
		nSpecs  = 4
		nDrops  = 3
		nFrames = 200
		gop     = 10
		size    = 4 << 10
	)
	pace := 3 * time.Millisecond
	run := runChaos(t, nSpecs, nDrops, nFrames, gop, size, pace, 96<<10)

	var gaps []time.Duration
	for i, sp := range run.specs {
		if sp.err != nil {
			t.Errorf("spectator %d disconnected: %v", i, sp.err)
		}
		if sp.badPayload > 0 {
			t.Errorf("spectator %d: %d corrupt frames", i, sp.badPayload)
		}
		gaps = append(gaps, sp.gaps...)
	}
	for i, ttff := range run.reconnectTTFF {
		t.Logf("reconnect %d: redial → first frame %v", i+1, ttff)
	}
	p50, p99, pMax := gapPercentile(gaps, 50), gapPercentile(gaps, 99), gapPercentile(gaps, 100)
	t.Logf("spectator inter-frame gap (pooled, %d samples): p50 %v, p99 %v, max %v (pace %v, %d drops)",
		len(gaps), p50, p99, pMax, pace, nDrops)
	s := run.reg.Snapshot()
	t.Logf("relay: parks %d, reclaims %d, expired %d, evicted %d",
		s.Counter("stream_relay_channel_parks_total"),
		s.Counter("stream_relay_channel_reclaims_total"),
		s.Counter("stream_relay_park_expired_total"),
		s.Counter("stream_relay_subscribers_evicted_total"))
	if got := s.Counter("stream_relay_channel_reclaims_total"); got != nDrops {
		t.Errorf("reclaims = %d, want %d", got, nDrops)
	}
}
