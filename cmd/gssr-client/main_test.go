package main

import (
	"errors"
	"net"
	"testing"

	"gamestreamsr/internal/stream"
)

// TestRejectIsFinal: a typed Reject surfaces as *stream.RejectedError after
// a single dial — the server understood the hello and said no.
func TestRejectIsFinal(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dials := make(chan struct{}, 4)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			dials <- struct{}{}
			if _, err := stream.ReadMsg(conn); err == nil {
				_ = stream.WriteReject(conn, stream.Reject{Code: stream.RejectBusy, Reason: "no headroom"})
			}
			conn.Close()
		}
	}()

	hello := stream.Hello{Device: "test", RoIWindow: 16, Scale: 2, Version: stream.ProtocolVersion}
	_, _, _, err = dialHandshake(l.Addr().String(), hello)
	var rej *stream.RejectedError
	if !errors.As(err, &rej) || rej.Code != stream.RejectBusy {
		t.Fatalf("want RejectedError(busy), got %v", err)
	}
	if len(dials) != 1 {
		t.Fatalf("client dialled %d times after a reject, want 1", len(dials))
	}
}
