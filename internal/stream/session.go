package stream

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/telemetry"
)

// FrameSource supplies coded frames to a server session. Implementations
// typically wrap a renderer + RoI detector + encoder (see cmd/gssr-server).
type FrameSource interface {
	// NextFrame returns the coded payload, whether it is a reference
	// frame, and the RoI rectangle for frame index i. io.EOF ends the
	// session cleanly.
	NextFrame(i int) (payload []byte, key bool, roi frame.Rect, err error)
}

// ServerOptions configures a server session.
type ServerOptions struct {
	// Accept is the stream geometry announced to the client.
	Accept Accept
	// Source supplies frames until it returns io.EOF or MaxFrames is hit.
	Source FrameSource
	// MaxFrames bounds the session length; 0 means until Source EOF.
	MaxFrames int
	// OnInput, if non-nil, receives client input events.
	OnInput func(InputPacket)
	// OnStats, if non-nil, receives the client's periodic telemetry
	// backchannel reports (see StatsPacket). Called from the session's read
	// goroutine — keep it fast.
	OnStats func(StatsPacket)
	// Validate, if non-nil, vets the client's Hello before accepting.
	Validate func(Hello) error
	// Metrics, when non-nil, receives per-session telemetry: frames and
	// payload bytes sent, and a per-frame send-latency histogram. Nil is
	// a no-op.
	Metrics *telemetry.Registry
	// Flight, when non-nil, records every frame send into a flight
	// recorder: the send span on the "send" lane plus the frame's RoI and
	// payload size, and the send latency accounted against the recorder's
	// deadline — so a stalled socket shows up as a deadline-miss streak and
	// the window around it can be dumped (see internal/frametrace). The
	// recorder's frame IDs also tag the slow-send log lines, correlating
	// server logs with client-side traces of the same stream. Nil is a
	// no-op.
	Flight *frametrace.Recorder
	// SlowSend is the send-latency threshold above which a frame's send is
	// logged as an outlier (with its index and flight-recorder frame ID).
	// 0 picks DefaultSlowSend; negative disables the log.
	SlowSend time.Duration
	// Remote tags this session's log lines (typically the client address).
	Remote string
	// ResumeToken, when non-empty, rides in the Accept: the opaque handle a
	// reconnecting client replays in its Hello to be correlated with (and,
	// for publishers, reclaim the parked channel of) this session.
	ResumeToken string
	// IdleTimeout, when > 0, arms read-side liveness: the client heartbeats
	// (MsgPing), the session pongs, and a connection that stays silent past
	// the timeout is reaped as dead (the connection is closed, unblocking
	// the frame writer). Clients that stream for longer than the timeout
	// must call Client.SendPing.
	IdleTimeout time.Duration
	// ControlTimeout bounds small control writes (reject, bye, pong);
	// <= 0 picks DefaultControlTimeout.
	ControlTimeout time.Duration
	// Log receives the session's structured log lines (slow sends, reaps,
	// session-end diagnosis), tagged with session/frame/flight fields. Nil
	// uses logx.Default().
	Log *logx.Logger
	// OnReap, if non-nil, is called when read-side liveness reaps the
	// session (no traffic for IdleTimeout) — MultiServer wires it to the
	// diag watchdog so a reap freezes a capture bundle.
	OnReap func(idle time.Duration)
	// Tap, if non-nil, observes every outgoing frame packet after its
	// flight identity is assigned and before it hits the socket — the
	// relay's encode-once fan-out point. The packet's payload is only
	// valid during the call; implementations that keep it must copy.
	Tap func(FramePacket)
}

// DefaultSlowSend is the default outlier threshold for frame-send logging:
// three 60 FPS frame budgets — a send this slow means the link, not the
// encoder, is pacing the stream.
const DefaultSlowSend = 50 * time.Millisecond

// slowSendLimit rate-limits the per-session slow-send log lines: a stalled
// socket makes EVERY send slow, and one line per frame at 60 FPS is a log
// flood that buries the signal. The allowed lines carry a suppressed=N
// field so the flood's size survives the limiting.
var slowSendLimit = logx.NewLimiter(1, 3)

// Serve runs one server session over conn: handshake, then frames until the
// source is exhausted, then Bye. Client input arriving during the stream is
// dispatched to OnInput from a separate goroutine. Serve returns when the
// stream has been fully sent (or on the first error); the caller owns the
// connection and closes it.
func Serve(conn io.ReadWriter, opt ServerOptions) error {
	if opt.Source == nil {
		return errors.New("stream: server needs a frame source")
	}
	msg, err := ReadMsg(conn)
	tHello := time.Now() // T1 of the client's Cristian offset estimate
	if rej, ok := versionReject(err); ok {
		controlWrite(conn, opt.Metrics, opt.Log, opt.ControlTimeout, opt.Remote, "reject", func() error {
			return WriteReject(conn, rej)
		})
	}
	if err != nil {
		return fmt.Errorf("stream: reading hello: %w", err)
	}
	if msg.Type != MsgHello {
		return fmt.Errorf("%w: expected hello, got %v", ErrProtocol, msg.Type)
	}
	return serveHello(conn, *msg.Hello, tHello, opt)
}

// serveHello runs a server session whose opening Hello has already been
// read (tHello is its arrival time, T1 of the client's clock estimate) —
// the entry point for callers that dispatch on the first message
// themselves, like MultiServer's publisher/subscriber split.
func serveHello(conn io.ReadWriter, hello Hello, tHello time.Time, opt ServerOptions) error {
	if opt.Source == nil {
		return errors.New("stream: server needs a frame source")
	}
	if opt.Validate != nil {
		if err := opt.Validate(hello); err != nil {
			// Tell the client why before closing — a silent close is
			// indistinguishable from a network fault on their side.
			controlWrite(conn, opt.Metrics, opt.Log, opt.ControlTimeout, opt.Remote, "reject", func() error {
				return WriteReject(conn, Reject{Code: RejectBadHello, Reason: err.Error()})
			})
			return fmt.Errorf("stream: rejecting client: %w", err)
		}
	}
	acc := opt.Accept
	acc.Version = ProtocolVersion
	acc.RecvUnixMicro = tHello.UnixMicro()
	acc.SendUnixMicro = time.Now().UnixMicro()
	acc.Token = opt.ResumeToken
	if err := WriteAccept(conn, acc); err != nil {
		return fmt.Errorf("stream: writing accept: %w", err)
	}

	// Drain client messages (input events, stats reports, heartbeats, bye)
	// concurrently. clientBye distinguishes a clean protocol close from a
	// network failure in the session's closing log line. sendMu serializes
	// whole messages onto the socket: pong replies come from this read
	// goroutine while frames stream from the session loop, and a message is
	// two Writes (header, body) that must not interleave.
	var clientBye atomic.Bool
	var sendMu sync.Mutex
	var wg sync.WaitGroup
	stopRead := make(chan struct{})
	// Read-side liveness: the client heartbeats, so a silent connection is
	// a dead one. The deadline is re-armed before every read; when it fires
	// the session is reaped — the conn is closed, which also unblocks a
	// frame writer stuck on a blackholed socket.
	rd, canDeadline := conn.(interface{ SetReadDeadline(time.Time) error })
	liveness := opt.IdleTimeout > 0 && canDeadline
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if liveness {
				rd.SetReadDeadline(time.Now().Add(opt.IdleTimeout))
			}
			m, err := ReadMsg(conn)
			if err != nil {
				if liveness && errors.Is(err, os.ErrDeadlineExceeded) {
					opt.Metrics.Counter("stream_sessions_reaped_total").Inc()
					opt.Log.Warn("stream: reaping session: no traffic (not even a heartbeat)",
						"session", opt.Remote, "idle", opt.IdleTimeout)
					if opt.OnReap != nil {
						opt.OnReap(opt.IdleTimeout)
					}
					if c, ok := conn.(io.Closer); ok {
						c.Close()
					}
				}
				return
			}
			switch m.Type {
			case MsgInput:
				if opt.OnInput != nil {
					opt.OnInput(*m.Input)
				}
			case MsgStats:
				if opt.OnStats != nil {
					opt.OnStats(*m.Stats)
				}
			case MsgPing:
				opt.Metrics.Counter("stream_pings_total").Inc()
				ping := *m.Ping
				sendMu.Lock()
				err := controlWrite(conn, opt.Metrics, opt.Log, opt.ControlTimeout, opt.Remote, "pong", func() error {
					return WritePong(conn, PongPacket{Seq: ping.Seq, EchoUnixMicro: ping.SendUnixMicro})
				})
				sendMu.Unlock()
				if err != nil {
					return
				}
			case MsgBye:
				clientBye.Store(true)
				opt.Metrics.Counter("stream_client_bye_total").Inc()
				return
			default:
				return // protocol violation: stop reading
			}
			select {
			case <-stopRead:
				return
			default:
			}
		}
	}()

	framesSent := opt.Metrics.Counter("stream_frames_sent_total")
	bytesSent := opt.Metrics.Counter("stream_bytes_sent_total")
	sendLat := opt.Metrics.Histogram("stream_frame_send_seconds", telemetry.LatencyBuckets())
	slowSend := opt.SlowSend
	if slowSend == 0 {
		slowSend = DefaultSlowSend
	}

	var sendErr error
	// Reused across frames so deadline accounting allocates nothing.
	var latScratch [2]frametrace.StageLatency
	for i := 0; opt.MaxFrames == 0 || i < opt.MaxFrames; i++ {
		tSrc := time.Now()
		payload, key, roi, err := opt.Source.NextFrame(i)
		dSrc := time.Since(tSrc)
		if err == io.EOF {
			break
		}
		if err != nil {
			sendErr = fmt.Errorf("stream: frame source: %w", err)
			break
		}
		fid := opt.Flight.BeginFrame(i)
		opt.Flight.SetEncode(fid, roi, len(payload), len(payload))
		opt.Flight.Span(fid, "source", "source", tSrc, dSrc)
		t0 := time.Now()
		// The frame's wire identity: the server's flight ID (the client
		// recorder adopts it, so both dumps correlate) and the server clock
		// at send, from which the client computes the clock-corrected
		// end-to-end frame age.
		pkt := FramePacket{Index: uint32(i), Keyenc: key, FlightID: fid, SendUnixMicro: t0.UnixMicro(), RoI: roi, Payload: payload}
		if opt.Tap != nil {
			// The relay fan-out point: subscribers see the exact packet the
			// player gets (same index, flight ID, RoI), encoded once.
			opt.Tap(pkt)
		}
		sendMu.Lock()
		err = WriteFrame(conn, pkt)
		sendMu.Unlock()
		if err != nil {
			sendErr = fmt.Errorf("stream: writing frame %d: %w", i, err)
			break
		}
		d := time.Since(t0)
		opt.Flight.Span(fid, "send", "send", t0, d)
		// Frame production (render + detect + encode) plus the send are the
		// server's whole per-frame budget; accounting both against the
		// recorder's deadline makes an overloaded scheduler or a stalled
		// client socket visible as a miss streak on /metrics — the signal
		// the shed ladder and admission control key off.
		latScratch[0] = frametrace.StageLatency{Name: "source", D: dSrc}
		latScratch[1] = frametrace.StageLatency{Name: "send", D: d}
		opt.Flight.ObserveDeadline(fid, latScratch[:])
		if slowSend > 0 && d > slowSend {
			if ok, suppressed := slowSendLimit.Allow("slow_send:" + opt.Remote); ok {
				kv := []any{"session", opt.Remote, "frame", i, "flight", fid, "took", d,
					"bytes", len(payload), "roi_w", roi.W, "roi_h", roi.H}
				if suppressed > 0 {
					kv = append(kv, "suppressed", suppressed)
				}
				opt.Log.Warn("stream: slow send", kv...)
			}
		}
		sendLat.ObserveDuration(d)
		framesSent.Inc()
		bytesSent.Add(int64(len(payload)))
	}
	if sendErr == nil {
		sendMu.Lock()
		sendErr = WriteBye(conn)
		sendMu.Unlock()
	}
	close(stopRead)
	// A session that dies mid-send is either the client leaving politely
	// (its Bye raced our next frame) or the network failing; the closing
	// log line tells them apart so session logs are diagnosable.
	if opt.Remote != "" && sendErr != nil {
		if clientBye.Load() {
			opt.Log.Info("stream: client closed cleanly (bye received)", "session", opt.Remote)
		} else {
			opt.Log.Warn("stream: session ended without bye", "session", opt.Remote, "err", sendErr)
		}
	}
	// The read goroutine exits when the client sends Bye or the caller
	// closes the connection; do not block on it here.
	return sendErr
}

// versionReject maps a read error to the Reject a server answers it with:
// a Hello or Subscribe from another protocol version (or without the
// magic) gets RejectBadHello naming both versions. ok is false for every
// other error.
func versionReject(err error) (rej Reject, ok bool) {
	var verr *versionError
	if !errors.As(err, &verr) {
		return Reject{}, false
	}
	return Reject{
		Code:   RejectBadHello,
		Reason: fmt.Sprintf("protocol version mismatch: client %s, server v%d", verr.peer(), ProtocolVersion),
	}, true
}

// ClockSync is the client's Cristian-style estimate of the server clock,
// taken from the handshake's timestamp exchange: Offset estimates
// serverClock − clientClock, and the estimate's error is bounded by RTT/2
// (the classic bound — the true offset lies within ±RTT/2 of the
// estimate, since the request and reply legs split the round trip
// unknowably).
type ClockSync struct {
	// Offset is the estimated serverClock − clientClock.
	Offset time.Duration
	// RTT is the handshake round trip minus the server's hold time — the
	// network component only, which bounds the offset estimate's error.
	RTT time.Duration
	// Synced reports whether the timestamp exchange happened (false
	// before the handshake).
	Synced bool
}

// ServerTime converts a server-clock timestamp (µs since the Unix epoch,
// as carried by FramePackets) into the client's clock.
func (cs ClockSync) ServerTime(unixMicro int64) time.Time {
	return time.UnixMicro(unixMicro).Add(-cs.Offset)
}

// Client is the Moonlight-analogue session endpoint. Its write methods
// (SendInput, SendStats, SendPing, Bye) are safe to call from different
// goroutines — a shutdown path sending Bye must not interleave bytes with a
// stats report in flight.
//
// A server with read-side liveness (MultiServer by default, see
// DefaultIdleTimeout) reaps a session whose client sends nothing for the
// idle timeout, however steadily frames flow the other way. A long-lived
// session must therefore call SendPing every DefaultPingInterval or so.
type Client struct {
	conn    io.ReadWriter
	writeMu sync.Mutex
	cfg     Accept
	sync    ClockSync

	pingSeq  uint32       // under writeMu
	rttMicro atomic.Int64 // latest heartbeat RTT, µs
	pongs    atomic.Uint32
}

// NewClient wraps an established connection.
func NewClient(conn io.ReadWriter) *Client { return &Client{conn: conn} }

// Handshake sends the Hello (the device's capability probe result) and
// returns the server's stream geometry. It fills in ProtocolVersion and
// the send time when they are 0. The handshake also performs the clock
// exchange: the client's send time rides in the Hello, the server's
// receive/send pair rides back in the Accept, and the resulting offset +
// RTT estimate is available from Clock. A server that refuses the session
// (including for a protocol version mismatch) surfaces as *RejectedError.
func (c *Client) Handshake(h Hello) (Accept, error) {
	if h.Version == 0 {
		h.Version = ProtocolVersion
	}
	if h.SendUnixMicro == 0 {
		h.SendUnixMicro = time.Now().UnixMicro()
	}
	c.writeMu.Lock()
	err := WriteHello(c.conn, h)
	c.writeMu.Unlock()
	if err != nil {
		return Accept{}, fmt.Errorf("stream: writing hello: %w", err)
	}
	return c.awaitAccept(h.SendUnixMicro)
}

// Subscribe attaches this client to an existing publish channel as a
// spectator: instead of a Hello opening a game session, the Subscribe
// asks for the channel's cached geometry, the cached keyframe and the live
// GOP tail. The timestamp exchange is the same as Handshake's, so
// spectators get clock sync too. A missing channel comes back as a
// RejectedError with code RejectUnknownChannel.
func (c *Client) Subscribe(sub Subscribe) (Accept, error) {
	if sub.Version == 0 {
		sub.Version = ProtocolVersion
	}
	if sub.SendUnixMicro == 0 {
		sub.SendUnixMicro = time.Now().UnixMicro()
	}
	c.writeMu.Lock()
	err := WriteSubscribe(c.conn, sub)
	c.writeMu.Unlock()
	if err != nil {
		return Accept{}, fmt.Errorf("stream: writing subscribe: %w", err)
	}
	return c.awaitAccept(sub.SendUnixMicro)
}

// awaitAccept reads the server's Accept (or Reject), stores the stream
// geometry and completes the Cristian offset + RTT estimate from sendUS
// (the client-clock send time of the opening message) and the Accept's
// server clock pair.
func (c *Client) awaitAccept(sendUS int64) (Accept, error) {
	msg, err := ReadMsg(c.conn)
	t3 := time.Now()
	if err != nil {
		return Accept{}, fmt.Errorf("stream: reading accept: %w", err)
	}
	if msg.Type == MsgReject {
		return Accept{}, &RejectedError{
			Code:       msg.Reject.Code,
			Reason:     msg.Reject.Reason,
			RetryAfter: time.Duration(msg.Reject.RetryAfterMs) * time.Millisecond,
		}
	}
	if msg.Type != MsgAccept {
		return Accept{}, fmt.Errorf("%w: expected accept, got %v", ErrProtocol, msg.Type)
	}
	c.cfg = *msg.Accept
	// NTP-style two-sample estimate: T0/T3 on the client clock, T1/T2 on
	// the server's.
	t1 := c.cfg.RecvUnixMicro
	t2 := c.cfg.SendUnixMicro
	offUS := ((t1 - sendUS) + (t2 - t3.UnixMicro())) / 2
	rttUS := max((t3.UnixMicro()-sendUS)-(t2-t1), 0)
	c.sync = ClockSync{
		Offset: time.Duration(offUS) * time.Microsecond,
		RTT:    time.Duration(rttUS) * time.Microsecond,
		Synced: true,
	}
	return c.cfg, nil
}

// Config returns the negotiated stream geometry (zero before Handshake).
func (c *Client) Config() Accept { return c.cfg }

// Clock returns the handshake's clock-sync estimate (Synced false before
// Handshake).
func (c *Client) Clock() ClockSync { return c.sync }

// RecvFrame returns the next frame packet, or io.EOF after the server's
// Bye. Heartbeat pongs arriving between frames are consumed here — the RTT
// sample they carry updates PingRTT and the read continues.
func (c *Client) RecvFrame() (FramePacket, error) {
	for {
		msg, err := ReadMsg(c.conn)
		if err != nil {
			return FramePacket{}, err
		}
		switch msg.Type {
		case MsgFrame:
			return *msg.Frame, nil
		case MsgBye:
			return FramePacket{}, io.EOF
		case MsgPong:
			if us := msg.Pong.EchoUnixMicro; us > 0 {
				rtt := time.Since(time.UnixMicro(us))
				if rtt < 0 {
					rtt = 0
				}
				c.rttMicro.Store(rtt.Microseconds())
			}
			c.pongs.Add(1)
		default:
			return FramePacket{}, fmt.Errorf("%w: expected frame, got %v", ErrProtocol, msg.Type)
		}
	}
}

// SendPing ships a liveness heartbeat: the server echoes the timestamp in a
// Pong, which RecvFrame consumes into PingRTT. The heartbeat is also what
// keeps a long-lived session from being reaped as idle (see Client).
func (c *Client) SendPing() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.pingSeq++
	return WritePing(c.conn, PingPacket{Seq: c.pingSeq, SendUnixMicro: time.Now().UnixMicro()})
}

// PingRTT returns the most recent heartbeat round trip and how many pongs
// have been observed (zero before the first).
func (c *Client) PingRTT() (time.Duration, int) {
	return time.Duration(c.rttMicro.Load()) * time.Microsecond, int(c.pongs.Load())
}

// SendInput ships a user-input event to the server.
func (c *Client) SendInput(in InputPacket) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return WriteInput(c.conn, in)
}

// SendStats ships a telemetry backchannel report to the server.
func (c *Client) SendStats(st StatsPacket) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return WriteStats(c.conn, st)
}

// Bye announces a clean shutdown to the server, so its session log can
// distinguish a deliberate close from a network failure. The connection
// stays open; the caller closes it.
func (c *Client) Bye() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return WriteBye(c.conn)
}
