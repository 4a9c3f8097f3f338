package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/stream"
	"gamestreamsr/internal/telemetry"
)

// flightFrames is the per-session flight-recorder depth; gssr-server's
// documented production setting is -flight 128.
const flightFrames = 128

// benchServer is a stream.MultiServer on a loopback listener, configured
// as gssr-server runs in production: a metrics registry, per-session
// flight recorders and the process-wide parallel scheduler.
type benchServer struct {
	srv  *stream.MultiServer
	reg  *telemetry.Registry
	addr string
	done chan error
}

func startServer(acc stream.Accept, newSource stream.SourceFactory) (*benchServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	s := &benchServer{
		srv: &stream.MultiServer{
			Accept:       acc,
			NewSource:    newSource,
			Metrics:      reg,
			FlightFrames: flightFrames,
			Sched:        parallel.Default(),
		},
		reg:  reg,
		addr: l.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(l) }()
	return s, nil
}

// close shuts the server down and waits for Serve and every session to
// return. Sessions must already be able to finish (their sources stopped).
func (s *benchServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	if err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	return nil
}

// benchClient is one benchmark-side connection (player or spectator). Like
// gssr-client it heartbeats on v4 sessions so the server's idle reaper
// sees a live peer.
type benchClient struct {
	conn net.Conn
	c    *stream.Client
	acc  stream.Accept
	stop chan struct{}
	wg   sync.WaitGroup
}

// dialPlayer opens a game session with hello.
func dialPlayer(addr string, hello stream.Hello) (*benchClient, error) {
	return dial(addr, func(c *stream.Client) (stream.Accept, error) { return c.Handshake(hello) })
}

// dialSpectator joins a publish channel with sub.
func dialSpectator(addr string, sub stream.Subscribe) (*benchClient, error) {
	return dial(addr, func(c *stream.Client) (stream.Accept, error) { return c.Subscribe(sub) })
}

func dial(addr string, handshake func(*stream.Client) (stream.Accept, error)) (*benchClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := stream.NewClient(conn)
	acc, err := handshake(c)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	b := &benchClient{conn: conn, c: c, acc: acc, stop: make(chan struct{})}
	if acc.Version >= stream.ProtocolV4 {
		b.wg.Add(1)
		go b.heartbeat()
	}
	return b, nil
}

func (b *benchClient) heartbeat() {
	defer b.wg.Done()
	t := time.NewTicker(stream.DefaultPingInterval)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
			if err := b.c.SendPing(); err != nil {
				return
			}
		}
	}
}

// close says goodbye, closes the connection and waits for the heartbeat
// goroutine. Safe to call once.
func (b *benchClient) close() {
	close(b.stop)
	b.wg.Wait()
	_ = b.c.Bye() // the server may already have hung up
	b.conn.Close()
}
