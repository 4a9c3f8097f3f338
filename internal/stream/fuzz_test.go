package stream

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"gamestreamsr/internal/frame"
)

// FuzzReadMsg drives the wire-format parser with arbitrary bytes; the
// invariant is no panic and a well-formed message on success.
func FuzzReadMsg(f *testing.F) {
	var hello, helloBare, helloNewer, helloPreMagic, accept, acceptBare, fr, frBare, input, st, sub, rej, rejBadHello, ping, pong, bye bytes.Buffer
	WriteHello(&hello, Hello{Device: "seed", RoIWindow: 300, Scale: 2, Version: ProtocolVersion, SendUnixMicro: 1700000000000000, Channel: "arena", ResumeToken: "aabbccdd"})
	WriteHello(&helloBare, Hello{Device: "seed", RoIWindow: 300, Scale: 2, Version: ProtocolVersion})
	WriteHello(&helloNewer, Hello{Device: "seed", RoIWindow: 300, Scale: 2, Version: ProtocolVersion + 1})
	writeMsg(&helloPreMagic, MsgHello, []byte{4, 's', 'e', 'e', 'd', 0xAC, 0x02, 2, 4, 0, 0, 0}) // a v1–v4-era hello
	WriteAccept(&accept, Accept{Width: 1280, Height: 720, GOPSize: 60, QStep: 6, Version: ProtocolVersion, RecvUnixMicro: 1, SendUnixMicro: 2, Token: "aabbccdd"})
	WriteAccept(&acceptBare, Accept{Width: 1280, Height: 720, GOPSize: 60, QStep: 6, Version: ProtocolVersion})
	WriteFrame(&fr, FramePacket{Index: 7, Keyenc: true, FlightID: 8, SendUnixMicro: 1700000000000000, RoI: frame.Rect{X: 1, Y: 2, W: 3, H: 4}, Payload: []byte("data")})
	WriteFrame(&frBare, FramePacket{})
	WriteInput(&input, InputPacket{Seq: 9, Payload: []byte("in")})
	WriteStats(&st, StatsPacket{Seq: 1, WindowFrames: 60, AgeP99: 20 * time.Millisecond})
	WriteSubscribe(&sub, Subscribe{Channel: "arena", Device: "seed", Version: ProtocolVersion, SendUnixMicro: 1700000000000000})
	WriteReject(&rej, Reject{Code: RejectBusy, Reason: "busy", RetryAfterMs: 2000})
	WriteReject(&rejBadHello, Reject{Code: RejectBadHello, Reason: "protocol version mismatch: client v4, server v5"})
	WritePing(&ping, PingPacket{Seq: 3, SendUnixMicro: 1700000000000000})
	WritePong(&pong, PongPacket{Seq: 3, EchoUnixMicro: 1700000000000000})
	WriteBye(&bye)
	for _, b := range [][]byte{hello.Bytes(), helloBare.Bytes(), helloNewer.Bytes(), helloPreMagic.Bytes(),
		accept.Bytes(), acceptBare.Bytes(), fr.Bytes(), frBare.Bytes(), input.Bytes(), st.Bytes(),
		sub.Bytes(), rej.Bytes(), rejBadHello.Bytes(), ping.Bytes(), pong.Bytes(), bye.Bytes(), {}, {0xFF}} {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMsg(bytes.NewReader(data))
		if err != nil {
			return
		}
		switch msg.Type {
		case MsgHello:
			if msg.Hello == nil || msg.Hello.RoIWindow <= 0 {
				t.Fatal("malformed hello accepted")
			}
		case MsgAccept:
			if msg.Accept == nil || msg.Accept.Width <= 0 {
				t.Fatal("malformed accept accepted")
			}
		case MsgFrame:
			if msg.Frame == nil {
				t.Fatal("frame without body")
			}
		case MsgInput:
			if msg.Input == nil {
				t.Fatal("input without body")
			}
		case MsgStats:
			if msg.Stats == nil {
				t.Fatal("stats without body")
			}
		case MsgSubscribe:
			if msg.Subscribe == nil || msg.Subscribe.Channel == "" {
				t.Fatal("malformed subscribe accepted")
			}
		case MsgReject:
			if msg.Reject == nil {
				t.Fatal("reject without body")
			}
		case MsgPing:
			if msg.Ping == nil {
				t.Fatal("ping without body")
			}
		case MsgPong:
			if msg.Pong == nil {
				t.Fatal("pong without body")
			}
		case MsgBye:
		default:
			t.Fatalf("unknown type %v accepted", msg.Type)
		}
	})
}

// --- Round-trip fuzz + property tests ----------------------------------------
//
// Every message type must decode back to exactly what was encoded and
// re-encode to identical bytes. The helpers first bring their input into
// the wire's domain (positive geometry, non-negative timestamps, whole-µs
// durations, ≤255-byte strings, ProtocolVersion).

// roundTrip encodes with enc, decodes via ReadMsg, asserts the decoded
// message re-encodes byte-identically, and returns it.
func roundTrip(t *testing.T, enc func(*bytes.Buffer) error, reenc func(*bytes.Buffer, *Msg) error) *Msg {
	t.Helper()
	var buf bytes.Buffer
	if err := enc(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	wire := append([]byte(nil), buf.Bytes()...)
	msg, err := ReadMsg(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var again bytes.Buffer
	if err := reenc(&again, &msg); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(wire, again.Bytes()) {
		t.Fatalf("not canonical:\n first %v\nsecond %v", wire, again.Bytes())
	}
	return &msg
}

// sanitizePos maps an arbitrary int into [1, 1<<20] (uvarint fields that
// must be positive).
func sanitizePos(v int) int {
	if v < 0 {
		v = -(v + 1)
	}
	return v%(1<<20) + 1
}

// sanitizeNonNeg maps an arbitrary int into [0, 1<<20].
func sanitizeNonNeg(v int) int {
	if v < 0 {
		v = -(v + 1)
	}
	return v % (1<<20 + 1)
}

func helloRoundTrip(t *testing.T, h Hello) {
	if len(h.Device) > 255 {
		h.Device = h.Device[:255]
	}
	if len(h.Channel) > 255 {
		h.Channel = h.Channel[:255]
	}
	if len(h.ResumeToken) > 255 {
		h.ResumeToken = h.ResumeToken[:255]
	}
	h.RoIWindow, h.Scale = sanitizePos(h.RoIWindow), sanitizePos(h.Scale)
	h.Version = ProtocolVersion
	h.SendUnixMicro = max(h.SendUnixMicro, 0)
	msg := roundTrip(t,
		func(b *bytes.Buffer) error { return WriteHello(b, h) },
		func(b *bytes.Buffer, m *Msg) error { return WriteHello(b, *m.Hello) })
	if *msg.Hello != h {
		t.Fatalf("hello = %+v, want %+v", *msg.Hello, h)
	}
}

func FuzzHelloRoundTrip(f *testing.F) {
	f.Add("s8", 64, 2, int64(1700000000000000), "", "")
	f.Add("", 1, 1, int64(0), "", "")
	f.Add("pixel", 300, 4, int64(-5), "arena", "deadbeefcafe")
	f.Add("s8", 64, 2, int64(1700000000000000), "lobby/2", "")
	f.Add("s8", 64, 2, int64(1700000000000000), "arena", "00112233445566778899aabb")
	f.Fuzz(func(t *testing.T, dev string, roi, scale int, sendUS int64, channel, token string) {
		helloRoundTrip(t, Hello{Device: dev, RoIWindow: roi, Scale: scale, SendUnixMicro: sendUS, Channel: channel, ResumeToken: token})
	})
}

func subscribeRoundTrip(t *testing.T, sub Subscribe) {
	if sub.Channel == "" {
		sub.Channel = "c" // the writer refuses an empty channel by contract
	}
	if len(sub.Channel) > 255 {
		sub.Channel = sub.Channel[:255]
	}
	if len(sub.Device) > 255 {
		sub.Device = sub.Device[:255]
	}
	sub.Version = ProtocolVersion
	sub.SendUnixMicro = max(sub.SendUnixMicro, 0)
	msg := roundTrip(t,
		func(b *bytes.Buffer) error { return WriteSubscribe(b, sub) },
		func(b *bytes.Buffer, m *Msg) error { return WriteSubscribe(b, *m.Subscribe) })
	if *msg.Subscribe != sub {
		t.Fatalf("subscribe = %+v, want %+v", *msg.Subscribe, sub)
	}
}

func FuzzSubscribeRoundTrip(f *testing.F) {
	f.Add("arena", "s8", int64(1700000000000000))
	f.Add("c", "", int64(0))
	f.Add("lobby/2", "pixel", int64(-4))
	f.Fuzz(func(t *testing.T, channel, dev string, sendUS int64) {
		subscribeRoundTrip(t, Subscribe{Channel: channel, Device: dev, SendUnixMicro: sendUS})
	})
}

func acceptRoundTrip(t *testing.T, a Accept) {
	a.Width, a.Height = sanitizePos(a.Width), sanitizePos(a.Height)
	a.GOPSize, a.QStep = sanitizePos(a.GOPSize), sanitizePos(a.QStep)
	a.Version = ProtocolVersion
	a.RecvUnixMicro = max(a.RecvUnixMicro, 0)
	a.SendUnixMicro = max(a.SendUnixMicro, 0)
	if len(a.Token) > 255 {
		a.Token = a.Token[:255]
	}
	msg := roundTrip(t,
		func(b *bytes.Buffer) error { return WriteAccept(b, a) },
		func(b *bytes.Buffer, m *Msg) error { return WriteAccept(b, *m.Accept) })
	if *msg.Accept != a {
		t.Fatalf("accept = %+v, want %+v", *msg.Accept, a)
	}
}

func FuzzAcceptRoundTrip(f *testing.F) {
	f.Add(1280, 720, 60, 6, int64(10), int64(20), "")
	f.Add(1, 1, 1, 1, int64(0), int64(0), "")
	f.Add(1280, 720, 60, 6, int64(10), int64(20), "deadbeefcafe")
	f.Fuzz(func(t *testing.T, w, h, gop, q int, recvUS, sendUS int64, token string) {
		acceptRoundTrip(t, Accept{Width: w, Height: h, GOPSize: gop, QStep: q, RecvUnixMicro: recvUS, SendUnixMicro: sendUS, Token: token})
	})
}

func frameRoundTrip(t *testing.T, p FramePacket) {
	p.RoI = frame.Rect{X: sanitizeNonNeg(p.RoI.X), Y: sanitizeNonNeg(p.RoI.Y), W: sanitizeNonNeg(p.RoI.W), H: sanitizeNonNeg(p.RoI.H)}
	p.SendUnixMicro = max(p.SendUnixMicro, 0)
	msg := roundTrip(t,
		func(b *bytes.Buffer) error { return WriteFrame(b, p) },
		func(b *bytes.Buffer, m *Msg) error { return WriteFrame(b, *m.Frame) })
	got := *msg.Frame
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("payload = %q, want %q", got.Payload, p.Payload)
	}
	if got.Index != p.Index || got.Keyenc != p.Keyenc || got.FlightID != p.FlightID ||
		got.SendUnixMicro != p.SendUnixMicro || got.RoI != p.RoI {
		t.Fatalf("frame = %+v, want %+v", got, p)
	}
}

func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint32(7), true, uint64(0), int64(0), 1, 2, 3, 4, []byte("data"))
	f.Add(uint32(9), false, uint64(12), int64(1700000000000000), 0, 0, 64, 64, []byte{})
	f.Add(uint32(0), false, uint64(0), int64(-3), 0, 0, 0, 0, []byte("x"))
	f.Fuzz(func(t *testing.T, idx uint32, key bool, fid uint64, sendUS int64, x, y, w, h int, payload []byte) {
		frameRoundTrip(t, FramePacket{Index: idx, Keyenc: key, FlightID: fid, SendUnixMicro: sendUS,
			RoI: frame.Rect{X: x, Y: y, W: w, H: h}, Payload: payload})
	})
}

func inputRoundTrip(t *testing.T, in InputPacket) {
	msg := roundTrip(t,
		func(b *bytes.Buffer) error { return WriteInput(b, in) },
		func(b *bytes.Buffer, m *Msg) error { return WriteInput(b, *m.Input) })
	if msg.Input.Seq != in.Seq || !bytes.Equal(msg.Input.Payload, in.Payload) {
		t.Fatalf("input = %+v, want %+v", *msg.Input, in)
	}
}

func FuzzInputRoundTrip(f *testing.F) {
	f.Add(uint32(9), []byte("in"))
	f.Add(uint32(0), []byte{})
	f.Fuzz(func(t *testing.T, seq uint32, payload []byte) {
		inputRoundTrip(t, InputPacket{Seq: seq, Payload: payload})
	})
}

// sanitizeDur maps an arbitrary µs count into a non-negative duration of
// whole µs — the wire's granularity.
func sanitizeDur(us int64) time.Duration {
	if us < 0 {
		return 0
	}
	return time.Duration(us%(1<<40)) * time.Microsecond
}

func statsRoundTrip(t *testing.T, st StatsPacket) {
	st.DecodeP50, st.DecodeP99 = sanitizeDur(int64(st.DecodeP50)), sanitizeDur(int64(st.DecodeP99))
	st.SRP50, st.SRP99 = sanitizeDur(int64(st.SRP50)), sanitizeDur(int64(st.SRP99))
	st.AgeP50, st.AgeP99 = sanitizeDur(int64(st.AgeP50)), sanitizeDur(int64(st.AgeP99))
	msg := roundTrip(t,
		func(b *bytes.Buffer) error { return WriteStats(b, st) },
		func(b *bytes.Buffer, m *Msg) error { return WriteStats(b, *m.Stats) })
	if *msg.Stats != st {
		t.Fatalf("stats = %+v, want %+v", *msg.Stats, st)
	}
}

func FuzzStatsRoundTrip(f *testing.F) {
	f.Add(uint32(1), uint32(60), uint32(0), uint32(2), int64(3000), int64(7000), int64(4000), int64(9000), int64(18000), int64(31000))
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(-1))
	f.Fuzz(func(t *testing.T, seq, wf, drop, miss uint32, d50, d99, s50, s99, a50, a99 int64) {
		statsRoundTrip(t, StatsPacket{Seq: seq, WindowFrames: wf, Dropped: drop, Misses: miss,
			DecodeP50: time.Duration(d50), DecodeP99: time.Duration(d99),
			SRP50: time.Duration(s50), SRP99: time.Duration(s99),
			AgeP50: time.Duration(a50), AgeP99: time.Duration(a99)})
	})
}

func rejectRoundTrip(t *testing.T, rej Reject) {
	if len(rej.Reason) > 255 {
		rej.Reason = rej.Reason[:255]
	}
	msg := roundTrip(t,
		func(b *bytes.Buffer) error { return WriteReject(b, rej) },
		func(b *bytes.Buffer, m *Msg) error { return WriteReject(b, *m.Reject) })
	if *msg.Reject != rej {
		t.Fatalf("reject = %+v, want %+v", *msg.Reject, rej)
	}
}

func FuzzRejectRoundTrip(f *testing.F) {
	f.Add(uint8(1), "busy", uint32(0))
	f.Add(uint8(0), "", uint32(0))
	f.Add(uint8(1), "busy", uint32(2000))
	f.Fuzz(func(t *testing.T, code uint8, reason string, retryMs uint32) {
		rejectRoundTrip(t, Reject{Code: RejectCode(code), Reason: reason, RetryAfterMs: retryMs})
	})
}

func pingRoundTrip(t *testing.T, p PingPacket) {
	p.SendUnixMicro = max(p.SendUnixMicro, 0)
	msg := roundTrip(t,
		func(b *bytes.Buffer) error { return WritePing(b, p) },
		func(b *bytes.Buffer, m *Msg) error { return WritePing(b, *m.Ping) })
	if *msg.Ping != p {
		t.Fatalf("ping = %+v, want %+v", *msg.Ping, p)
	}
}

func pongRoundTrip(t *testing.T, p PongPacket) {
	p.EchoUnixMicro = max(p.EchoUnixMicro, 0)
	msg := roundTrip(t,
		func(b *bytes.Buffer) error { return WritePong(b, p) },
		func(b *bytes.Buffer, m *Msg) error { return WritePong(b, *m.Pong) })
	if *msg.Pong != p {
		t.Fatalf("pong = %+v, want %+v", *msg.Pong, p)
	}
}

func FuzzPingPongRoundTrip(f *testing.F) {
	f.Add(uint32(1), int64(1700000000000000))
	f.Add(uint32(0), int64(0))
	f.Add(uint32(1<<30), int64(-7))
	f.Fuzz(func(t *testing.T, seq uint32, us int64) {
		pingRoundTrip(t, PingPacket{Seq: seq, SendUnixMicro: us})
		pongRoundTrip(t, PongPacket{Seq: seq, EchoUnixMicro: us})
	})
}

// TestWireProperties drives the same round-trip invariants with
// testing/quick's generator — the property-test complement to the fuzz
// corpus, run on every plain `go test`.
func TestWireProperties(t *testing.T) {
	if err := quick.Check(func(dev string, roi, scale int, sendUS int64, channel, token string) bool {
		helloRoundTrip(t, Hello{Device: dev, RoIWindow: roi, Scale: scale, SendUnixMicro: sendUS, Channel: channel, ResumeToken: token})
		return !t.Failed()
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(channel, dev string, sendUS int64) bool {
		subscribeRoundTrip(t, Subscribe{Channel: channel, Device: dev, SendUnixMicro: sendUS})
		return !t.Failed()
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(w, h, gop, q int, recvUS, sendUS int64, token string) bool {
		acceptRoundTrip(t, Accept{Width: w, Height: h, GOPSize: gop, QStep: q, RecvUnixMicro: recvUS, SendUnixMicro: sendUS, Token: token})
		return !t.Failed()
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(idx uint32, key bool, fid uint64, sendUS int64, x, y, w, h int, payload []byte) bool {
		frameRoundTrip(t, FramePacket{Index: idx, Keyenc: key, FlightID: fid, SendUnixMicro: sendUS,
			RoI: frame.Rect{X: x, Y: y, W: w, H: h}, Payload: payload})
		return !t.Failed()
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(seq, wf, drop, miss uint32, d50, d99, s50, s99, a50, a99 int64) bool {
		statsRoundTrip(t, StatsPacket{Seq: seq, WindowFrames: wf, Dropped: drop, Misses: miss,
			DecodeP50: time.Duration(d50), DecodeP99: time.Duration(d99),
			SRP50: time.Duration(s50), SRP99: time.Duration(s99),
			AgeP50: time.Duration(a50), AgeP99: time.Duration(a99)})
		return !t.Failed()
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(code uint8, reason string, retryMs uint32) bool {
		rejectRoundTrip(t, Reject{Code: RejectCode(code), Reason: reason, RetryAfterMs: retryMs})
		return !t.Failed()
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(seq uint32, us int64) bool {
		pingRoundTrip(t, PingPacket{Seq: seq, SendUnixMicro: us})
		pongRoundTrip(t, PongPacket{Seq: seq, EchoUnixMicro: us})
		return !t.Failed()
	}, nil); err != nil {
		t.Error(err)
	}
}
