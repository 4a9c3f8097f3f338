package stream

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/telemetry"
)

// serveFrames runs a 3-frame server session on conn and returns its error
// channel.
func serveFrames(conn io.ReadWriter, opt ServerOptions) chan error {
	if opt.Source == nil {
		opt.Source = &sliceSource{frames: [][]byte{[]byte("f0"), []byte("f1"), []byte("f2")}}
	}
	if opt.Accept == (Accept{}) {
		opt.Accept = Accept{Width: 160, Height: 90, GOPSize: 60, QStep: 6}
	}
	done := make(chan error, 1)
	go func() { done <- Serve(conn, opt) }()
	return done
}

// TestHandshakeClockSync checks the handshake end to end: protocol
// version, Cristian clock sync with the offset error bounded by RTT/2
// (both endpoints share one physical clock here, so the true offset is 0),
// and frames carrying the server's flight identity.
func TestHandshakeClockSync(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	rec := frametrace.New(frametrace.Config{Frames: 8})
	done := serveFrames(server, ServerOptions{Flight: rec})

	c := NewClient(client)
	cfg, err := c.Handshake(Hello{Device: "v2", RoIWindow: 40, Scale: 2, Version: ProtocolVersion})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Version != ProtocolVersion {
		t.Fatalf("negotiated version = %d, want %d", cfg.Version, ProtocolVersion)
	}
	clock := c.Clock()
	if !clock.Synced {
		t.Fatal("v2 handshake should sync the clock")
	}
	if clock.RTT < 0 {
		t.Fatalf("negative rtt %v", clock.RTT)
	}
	// Same physical clock on both ends: the estimate's error — here the
	// offset itself — must respect the Cristian bound (±1µs of timestamp
	// quantisation slack).
	if off := clock.Offset.Abs(); off > clock.RTT/2+time.Microsecond {
		t.Errorf("|offset| %v exceeds RTT/2 %v", off, clock.RTT/2)
	}
	var ids []uint64
	for {
		pkt, err := c.RecvFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if pkt.FlightID == 0 || pkt.SendUnixMicro == 0 {
			t.Fatalf("v2 frame without trace identity: %+v", pkt)
		}
		ids = append(ids, pkt.FlightID)
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if len(ids) != 3 {
		t.Fatalf("received %d frames", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("flight IDs not increasing: %v", ids)
		}
	}
}

// TestVersionMismatchRejected: a Hello or Subscribe from any other protocol
// version, or without the magic (a build from before the magic existed),
// is refused with RejectBadHello whose reason names both versions — by
// MultiServer and by a plain Serve session alike. There is no negotiation.
func TestVersionMismatchRejected(t *testing.T) {
	// A Hello as builds of protocol versions 1–4 wrote it: device name,
	// RoI window, scale, version, send time, channel, resume token.
	preMagic := []byte{1, 'd'}
	for _, v := range []uint64{32, 2, 4, 12345, 0, 0} {
		preMagic = binary.AppendUvarint(preMagic, v)
	}
	cases := []struct {
		name string
		peer string // how the reason names the client's version
		open func(c *Client) error
	}{
		{"hello-newer", fmt.Sprintf("v%d", ProtocolVersion+1), func(c *Client) error {
			_, err := c.Handshake(Hello{Device: "d", RoIWindow: 8, Scale: 2, Version: ProtocolVersion + 1})
			return err
		}},
		{"hello-older", fmt.Sprintf("v%d", ProtocolVersion-1), func(c *Client) error {
			_, err := c.Handshake(Hello{Device: "d", RoIWindow: 8, Scale: 2, Version: ProtocolVersion - 1})
			return err
		}},
		{"subscribe-newer", fmt.Sprintf("v%d", ProtocolVersion+1), func(c *Client) error {
			_, err := c.Subscribe(Subscribe{Channel: "arena", Version: ProtocolVersion + 1})
			return err
		}},
		{"subscribe-older", fmt.Sprintf("v%d", ProtocolVersion-1), func(c *Client) error {
			_, err := c.Subscribe(Subscribe{Channel: "arena", Version: ProtocolVersion - 1})
			return err
		}},
		{"bad-magic", fmt.Sprintf("pre-v%d", ProtocolVersion), func(c *Client) error {
			if err := writeMsg(c.conn, MsgHello, preMagic); err != nil {
				return err
			}
			_, err := c.awaitAccept(0)
			return err
		}},
	}
	srv := &MultiServer{
		Accept:    Accept{Width: 16, Height: 16, GOPSize: 4, QStep: 6},
		NewSource: func(Hello) (FrameSource, error) { return &countingSource{n: 1}, nil },
	}
	addr, done := startMulti(t, srv)
	defer func() {
		srv.Shutdown(context.Background())
		<-done
	}()
	check := func(t *testing.T, err error, peer string) {
		t.Helper()
		var rej *RejectedError
		if !errors.As(err, &rej) || rej.Code != RejectBadHello {
			t.Fatalf("got %v, want *RejectedError(bad-hello)", err)
		}
		for _, want := range []string{peer, fmt.Sprintf("server v%d", ProtocolVersion)} {
			if !strings.Contains(rej.Reason, want) {
				t.Errorf("reason %q does not name %q", rej.Reason, want)
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name+"/multi", func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			check(t, tc.open(NewClient(conn)), tc.peer)
		})
		t.Run(tc.name+"/serve", func(t *testing.T) {
			server, client := net.Pipe()
			defer server.Close()
			defer client.Close()
			done := serveFrames(server, ServerOptions{})
			check(t, tc.open(NewClient(client)), tc.peer)
			if err := <-done; !errors.Is(err, ErrProtocol) {
				t.Fatalf("server: %v, want a protocol error", err)
			}
		})
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("%d sessions admitted across a version mismatch", n)
	}
}

// TestStatsBackchannel exercises the client → server telemetry path and the
// clean-close Bye over one session.
func TestStatsBackchannel(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	reg := telemetry.NewRegistry()
	stats := make(chan StatsPacket, 4)
	done := serveFrames(server, ServerOptions{
		Metrics: reg,
		OnStats: func(st StatsPacket) { stats <- st },
	})

	c := NewClient(client)
	if _, err := c.Handshake(Hello{Device: "bc", RoIWindow: 40, Scale: 2, Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	want := StatsPacket{
		Seq: 3, WindowFrames: 60, Dropped: 2, Misses: 5,
		DecodeP50: 3 * time.Millisecond, DecodeP99: 7 * time.Millisecond,
		SRP50: 4 * time.Millisecond, SRP99: 9 * time.Millisecond,
		AgeP50: 18 * time.Millisecond, AgeP99: 31 * time.Millisecond,
	}
	if err := c.SendStats(want); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-stats:
		if got != want {
			t.Fatalf("stats = %+v, want %+v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stats report never delivered")
	}
	for {
		if _, err := c.RecvFrame(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Bye(); err != nil {
		t.Fatal(err)
	}
	<-done
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counter("stream_client_bye_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client bye never counted")
		}
		time.Sleep(time.Millisecond)
	}
}
