package stream

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"testing/quick"
	"time"

	"gamestreamsr/internal/frame"
	"strings"
)

func TestMsgTypeString(t *testing.T) {
	for _, c := range []struct {
		t    MsgType
		want string
	}{
		{MsgHello, "hello"}, {MsgAccept, "accept"}, {MsgFrame, "frame"},
		{MsgInput, "input"}, {MsgBye, "bye"}, {MsgType(99), "MsgType(99)"},
	} {
		if c.t.String() != c.want {
			t.Errorf("%d.String() = %q", c.t, c.t.String())
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h := Hello{Device: "Samsung Galaxy Tab S8", RoIWindow: 300, Scale: 2, Version: ProtocolVersion}
	if err := WriteHello(&buf, h); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgHello || *msg.Hello != h {
		t.Fatalf("round trip = %+v", msg)
	}
}

func TestHelloValidation(t *testing.T) {
	var buf bytes.Buffer
	long := make([]byte, 300)
	if err := WriteHello(&buf, Hello{Device: string(long), RoIWindow: 1, Scale: 1}); err == nil {
		t.Error("over-long device name should fail")
	}
	// Zero RoI window rejected on parse.
	buf.Reset()
	if err := WriteHello(&buf, Hello{Device: "x", RoIWindow: 0, Scale: 2, Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMsg(&buf); err == nil {
		t.Error("zero RoI window should be rejected")
	}
}

func TestAcceptRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	a := Accept{Width: 1280, Height: 720, GOPSize: 60, QStep: 6, Version: ProtocolVersion}
	if err := WriteAccept(&buf, a); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgAccept || *msg.Accept != a {
		t.Fatalf("round trip = %+v", msg)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := func(idx uint32, key bool, x, y, w, h uint8, payload []byte) bool {
		var buf bytes.Buffer
		in := FramePacket{
			Index:  idx,
			Keyenc: key,
			RoI:    frame.Rect{X: int(x), Y: int(y), W: int(w), H: int(h)},
		}
		if payload != nil {
			in.Payload = payload
		}
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		msg, err := ReadMsg(&buf)
		if err != nil || msg.Type != MsgFrame {
			return false
		}
		out := *msg.Frame
		return out.Index == in.Index && out.Keyenc == in.Keyenc &&
			out.RoI == in.RoI && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInputRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := InputPacket{Seq: 42, Payload: []byte("W down")}
	if err := WriteInput(&buf, in); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMsg(&buf)
	if err != nil || msg.Type != MsgInput {
		t.Fatal(err)
	}
	if msg.Input.Seq != 42 || string(msg.Input.Payload) != "W down" {
		t.Fatalf("round trip = %+v", msg.Input)
	}
}

func TestByeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBye(&buf); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMsg(&buf)
	if err != nil || msg.Type != MsgBye {
		t.Fatalf("bye round trip: %v, %v", msg, err)
	}
}

func TestReadMsgRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},
		{byte(MsgHello)},                    // missing length
		{byte(MsgHello), 0x05, 0x01},        // short body
		{0x63, 0x00},                        // unknown type
		{byte(MsgFrame), 0x01, 0xFF},        // truncated frame body
		{byte(MsgAccept), 0x02, 0x00, 0x00}, // zero accept fields
	}
	for i, c := range cases {
		if _, err := ReadMsg(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestReadMsgBodyLimit(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(byte(MsgFrame))
	// Length claiming 1 GB.
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x04})
	if _, err := ReadMsg(&buf); err == nil || !errors.Is(err, ErrProtocol) {
		t.Errorf("oversized body should be rejected: %v", err)
	}
}

func TestFramePayloadLengthMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FramePacket{Payload: []byte("abcd")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw = raw[:len(raw)-1] // drop one payload byte
	// Fix up the outer length prefix: easier to rebuild.
	inner := raw[2:]
	var rebuilt bytes.Buffer
	rebuilt.WriteByte(byte(MsgFrame))
	rebuilt.WriteByte(byte(len(inner)))
	rebuilt.Write(inner)
	if _, err := ReadMsg(&rebuilt); err == nil {
		t.Error("payload length mismatch should fail")
	}
}

// sliceSource serves a fixed set of frames.
type sliceSource struct {
	frames [][]byte
}

func (s *sliceSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	if i >= len(s.frames) {
		return nil, false, frame.Rect{}, io.EOF
	}
	return s.frames[i], i == 0, frame.Rect{X: i, Y: i, W: 10, H: 10}, nil
}

func TestSessionOverPipe(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()

	src := &sliceSource{frames: [][]byte{[]byte("frame0"), []byte("frame1"), []byte("frame2")}}
	inputs := make(chan InputPacket, 4)
	done := make(chan error, 1)
	go func() {
		done <- Serve(server, ServerOptions{
			Accept:  Accept{Width: 160, Height: 90, GOPSize: 60, QStep: 6},
			Source:  src,
			OnInput: func(in InputPacket) { inputs <- in },
		})
	}()

	c := NewClient(client)
	cfg, err := c.Handshake(Hello{Device: "test", RoIWindow: 40, Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Width != 160 || cfg.GOPSize != 60 {
		t.Fatalf("accept = %+v", cfg)
	}
	if c.Config() != cfg {
		t.Error("client should cache the config")
	}
	if err := c.SendInput(InputPacket{Seq: 1, Payload: []byte("jump")}); err != nil {
		t.Fatal(err)
	}
	var got []FramePacket
	for {
		f, err := c.RecvFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f)
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("received %d frames", len(got))
	}
	if !got[0].Keyenc || got[1].Keyenc {
		t.Error("keyframe flags wrong")
	}
	if string(got[2].Payload) != "frame2" || got[2].RoI.X != 2 {
		t.Errorf("frame 2 = %+v", got[2])
	}
	select {
	case in := <-inputs:
		if string(in.Payload) != "jump" || in.Seq != 1 {
			t.Errorf("input = %+v", in)
		}
	case <-time.After(5 * time.Second):
		t.Error("input never delivered")
	}
}

func TestSessionOverTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	src := &sliceSource{frames: [][]byte{[]byte("a"), []byte("b")}}
	done := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		done <- Serve(conn, ServerOptions{
			Accept: Accept{Width: 64, Height: 36, GOPSize: 4, QStep: 6},
			Source: src,
		})
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewClient(conn)
	if _, err := c.Handshake(Hello{Device: "tcp-test", RoIWindow: 16, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := c.RecvFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("received %d frames", n)
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestServeValidateRejects(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	done := make(chan error, 1)
	go func() {
		done <- Serve(server, ServerOptions{
			Accept:   Accept{Width: 64, Height: 36, GOPSize: 4, QStep: 6},
			Source:   &sliceSource{},
			Validate: func(h Hello) error { return errors.New("window too small") },
		})
	}()
	go WriteHello(client, Hello{Device: "x", RoIWindow: 4, Scale: 2, Version: ProtocolVersion})
	if err := <-done; err == nil {
		t.Fatal("server should reject the client")
	}
}

func TestServeMaxFrames(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	// An infinite source bounded by MaxFrames.
	infinite := frameFunc(func(i int) ([]byte, bool, frame.Rect, error) {
		return []byte{byte(i)}, false, frame.Rect{}, nil
	})
	done := make(chan error, 1)
	go func() {
		done <- Serve(server, ServerOptions{
			Accept:    Accept{Width: 64, Height: 36, GOPSize: 4, QStep: 6},
			Source:    infinite,
			MaxFrames: 5,
		})
	}()
	c := NewClient(client)
	if _, err := c.Handshake(Hello{Device: "x", RoIWindow: 16, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := c.RecvFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("received %d frames, want 5", n)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

type frameFunc func(int) ([]byte, bool, frame.Rect, error)

func (f frameFunc) NextFrame(i int) ([]byte, bool, frame.Rect, error) { return f(i) }

func TestServeRequiresSource(t *testing.T) {
	if err := Serve(nil, ServerOptions{}); err == nil {
		t.Fatal("missing source should fail")
	}
}

func TestClientRejectsWrongHandshakeReply(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	go func() {
		ReadMsg(server)  // consume hello
		WriteBye(server) // wrong reply
	}()
	c := NewClient(client)
	if _, err := c.Handshake(Hello{Device: "x", RoIWindow: 16, Scale: 2}); err == nil {
		t.Fatal("wrong handshake reply should fail")
	}
}

func TestRejectRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Reject{Code: RejectBusy, Reason: "no SLO headroom: p99 21ms"}
	if err := WriteReject(&buf, in); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgReject || msg.Reject == nil {
		t.Fatalf("message = %+v, want a reject", msg)
	}
	if *msg.Reject != in {
		t.Errorf("round trip = %+v, want %+v", *msg.Reject, in)
	}
	if got := in.Code.String(); got != "busy" {
		t.Errorf("RejectBusy.String() = %q", got)
	}

	// Oversized reasons are truncated to the wire limit, not an error.
	long := Reject{Code: RejectCapacity, Reason: strings.Repeat("x", 300)}
	buf.Reset()
	if err := WriteReject(&buf, long); err != nil {
		t.Fatal(err)
	}
	msg, err = ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(msg.Reject.Reason); n != 255 {
		t.Errorf("truncated reason length = %d, want 255", n)
	}
}

// TestParsersRejectTrailingBytes: every message has one fixed field list,
// so one extra byte after the last field is a protocol error, never a
// field to skip.
func TestParsersRejectTrailingBytes(t *testing.T) {
	writers := map[MsgType]func(*bytes.Buffer) error{
		MsgHello: func(b *bytes.Buffer) error {
			return WriteHello(b, Hello{Device: "d", RoIWindow: 8, Scale: 2, Version: ProtocolVersion, Channel: "c", ResumeToken: "t"})
		},
		MsgSubscribe: func(b *bytes.Buffer) error {
			return WriteSubscribe(b, Subscribe{Channel: "c", Device: "d", Version: ProtocolVersion})
		},
		MsgAccept: func(b *bytes.Buffer) error {
			return WriteAccept(b, Accept{Width: 4, Height: 4, GOPSize: 2, QStep: 6, Version: ProtocolVersion, Token: "t"})
		},
		MsgReject: func(b *bytes.Buffer) error { return WriteReject(b, Reject{Code: RejectBusy, Reason: "r"}) },
		MsgFrame: func(b *bytes.Buffer) error {
			return WriteFrame(b, FramePacket{Index: 1, FlightID: 2, SendUnixMicro: 3, Payload: []byte("p")})
		},
		MsgInput: func(b *bytes.Buffer) error { return WriteInput(b, InputPacket{Seq: 1, Payload: []byte("p")}) },
		MsgStats: func(b *bytes.Buffer) error { return WriteStats(b, StatsPacket{Seq: 1}) },
		MsgPing:  func(b *bytes.Buffer) error { return WritePing(b, PingPacket{Seq: 1}) },
		MsgPong:  func(b *bytes.Buffer) error { return WritePong(b, PongPacket{Seq: 1}) },
		MsgBye:   func(b *bytes.Buffer) error { return WriteBye(b) },
	}
	for typ, write := range writers {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		if _, err := ReadMsg(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%v: well-formed message rejected: %v", typ, err)
		}
		// Re-frame the body with one trailing byte (all bodies here are
		// short enough for a one-byte length).
		raw := buf.Bytes()
		body := append(append([]byte(nil), raw[2:]...), 0)
		long := append([]byte{raw[0], byte(len(body))}, body...)
		if _, err := ReadMsg(bytes.NewReader(long)); !errors.Is(err, ErrProtocol) {
			t.Errorf("%v with a trailing byte: err = %v, want a protocol error", typ, err)
		}
	}
}
