// Package stream implements the wire protocol between the GameStreamSR
// server and client — the role Sunshine and Moonlight (NVIDIA GameStream
// protocol) play in the paper's software setup (§V-A). It is a small
// length-prefixed message protocol over any reliable byte stream:
//
//	client → server  Hello     (device name, negotiated RoI window, scale,
//	                            client clock, optional publish-channel name
//	                            and resume token)
//	client → server  Subscribe (spectate an existing publish channel instead
//	                            of opening a game session)
//	server → client  Accept    (stream geometry: resolution, GOP, quantizer,
//	                            server clock pair, resume token)
//	server → client  Reject    (refusal: reason code + detail + retry-after
//	                            hint, then close)
//	server → client  Frame     (index, codec frame type, the server's flight
//	                            ID + send time, RoI coords, payload)
//	client → server  Input     (sequence number, opaque input event payload)
//	client → server  Stats     (periodic client-side latency/age percentiles
//	                            and drop counts — the telemetry backchannel)
//	either direction Ping/Pong (liveness heartbeat + RTT sample)
//	either direction Bye       (clean shutdown)
//
// The RoI coordinates riding alongside each frame are the paper's Fig. 6
// step ❺: the depth-guided RoI is computed on the server and shipped with
// the compressed frame so the client knows which region to route to the NPU.
//
// # Versioning (DESIGN.md §13)
//
// There is one protocol version, ProtocolVersion, and one encoding per
// message. Hello, Subscribe and Accept open with a two-byte magic followed
// by the sender's version; every other field of every message is always
// present, in a fixed order, and a parser rejects a body with missing or
// trailing bytes. There is no negotiation: a server that reads a Hello or
// Subscribe with a different magic or version answers RejectBadHello,
// naming both versions, and closes. The Reject keeps the shape earlier
// builds parse (code byte, short reason, trailing retry-after uvarint), so
// a stale peer is told why it was refused instead of seeing a dropped
// connection.
//
// Strings (device, channel, resume token, payloads) are a uvarint length
// followed by raw bytes; integers and timestamps (µs since the Unix epoch)
// are uvarints.
package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"gamestreamsr/internal/frame"
)

const (
	// ProtocolVersion is the one wire-protocol version this build speaks.
	// It is 5 so that a build from the era of versions 1–4, whose Hello has
	// no magic, gets a clean mismatch reject instead of a mis-parse.
	ProtocolVersion = 5
	// ProtocolV4 keeps code that checks Accept.Version >= ProtocolV4
	// compiling; every session satisfies that check.
	//
	// Deprecated: there is one protocol version; use ProtocolVersion.
	ProtocolV4 = ProtocolVersion
)

// protocolMagic opens every Hello, Subscribe and Accept body, ahead of the
// sender's protocol version.
const protocolMagic = "GS"

// MsgType identifies a protocol message.
type MsgType uint8

// Message types.
const (
	MsgHello MsgType = iota + 1
	MsgAccept
	MsgFrame
	MsgInput
	MsgBye
	MsgReject
	MsgStats
	MsgSubscribe
	MsgPing
	MsgPong
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgAccept:
		return "accept"
	case MsgFrame:
		return "frame"
	case MsgInput:
		return "input"
	case MsgBye:
		return "bye"
	case MsgReject:
		return "reject"
	case MsgStats:
		return "stats"
	case MsgSubscribe:
		return "subscribe"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// MaxBody bounds a message body; anything larger is rejected as corrupt.
const MaxBody = 16 << 20

// ErrProtocol wraps all wire-format violations.
var ErrProtocol = errors.New("stream: protocol error")

// Hello is the client's opening message: its identity and the §IV-B1
// capability probe result (Fig. 6 step ❶), plus the client's send time,
// which the server echoes into the Accept's clock pair.
type Hello struct {
	Device    string
	RoIWindow int
	Scale     int
	// Version is the client's protocol version. Client.Handshake fills in
	// ProtocolVersion when it is 0; a server refuses any other value.
	Version int
	// SendUnixMicro is the client's clock (µs since the Unix epoch) when
	// the Hello was written — T0 of the Cristian offset estimate. Filled by
	// Client.Handshake when 0.
	SendUnixMicro int64
	// Channel, when non-empty, registers this session as the publisher of
	// the named relay channel: spectators can then attach to the same
	// encoded GOP stream with a Subscribe. Empty means a solo session.
	Channel string
	// ResumeToken, when non-empty, replays the opaque token a previous
	// Accept issued: the server correlates this connection with the earlier
	// session (flight records, per-session metrics) and, if the session
	// published a channel that is still parked within its grace window,
	// hands the channel back with its subscribers intact. Empty means a
	// fresh session.
	ResumeToken string
}

// RejectCode classifies why the server refused a session.
type RejectCode uint8

// Reject codes.
const (
	// RejectBusy: admission control found no SLO headroom — retry later.
	RejectBusy RejectCode = iota + 1
	// RejectCapacity: the hard session cap is reached.
	RejectCapacity
	// RejectBadHello: the Hello (or Subscribe) failed validation, including
	// a protocol version or magic other than this build's.
	RejectBadHello
	// RejectUnknownChannel: a Subscribe named a channel with no live
	// publisher.
	RejectUnknownChannel
	// RejectChannelTaken: a Hello tried to publish under a channel name
	// that already has a live publisher.
	RejectChannelTaken
)

func (c RejectCode) String() string {
	switch c {
	case RejectBusy:
		return "busy"
	case RejectCapacity:
		return "capacity"
	case RejectBadHello:
		return "bad-hello"
	case RejectUnknownChannel:
		return "unknown-channel"
	case RejectChannelTaken:
		return "channel-taken"
	default:
		return fmt.Sprintf("RejectCode(%d)", uint8(c))
	}
}

// Reject is the server's refusal: sent instead of Accept (or instead of a
// silent close before the handshake), then the connection closes.
type Reject struct {
	Code   RejectCode
	Reason string
	// RetryAfterMs, when non-zero (on Busy and Capacity rejects), is the
	// server's hint for how long the client should back off before
	// redialling (milliseconds).
	RetryAfterMs uint32
}

// RejectedError is what Client.Handshake returns when the server answered
// with a Reject — typed so callers can distinguish "busy, retry later"
// from protocol failures, and carrying the server's human-readable reason
// so operators see *why* ("no SLO headroom: p99 …"), not just the code.
type RejectedError struct {
	Code   RejectCode
	Reason string
	// RetryAfter is the server-suggested redial delay (0 when the server
	// gave none); meaningful on RejectBusy.
	RetryAfter time.Duration
}

func (e *RejectedError) Error() string {
	s := fmt.Sprintf("stream: rejected (%v)", e.Code)
	if e.Reason != "" {
		s += ": " + e.Reason
	}
	if e.RetryAfter > 0 {
		s += fmt.Sprintf(" (retry after %v)", e.RetryAfter)
	}
	return s
}

// Accept is the server's handshake reply describing the stream, plus the
// server's receive/send clock pair (T1, T2) that completes the client's
// offset + RTT estimate.
type Accept struct {
	Width, Height int
	GOPSize       int
	QStep         int
	// Version is the server's protocol version; the server always sends
	// ProtocolVersion.
	Version int
	// RecvUnixMicro is the server's clock when the Hello arrived (T1).
	RecvUnixMicro int64
	// SendUnixMicro is the server's clock when the Accept was written (T2).
	SendUnixMicro int64
	// Token is the opaque resume token: a reconnecting client replays it in
	// its Hello so the server correlates the connections as one logical
	// session and a publisher can reclaim its parked channel. Empty when
	// the server issues none (spectators).
	Token string
}

// FramePacket carries one coded frame plus its RoI coordinates, the
// server's flight-recorder frame ID and the server clock at send time, so
// the frame keeps one identity from the server's encode spans to the
// client's present span and the client can compute a clock-corrected
// end-to-end frame age.
type FramePacket struct {
	Index  uint32
	Keyenc bool // reference (intra) frame
	// FlightID is the server flight recorder's ID for this frame (0 when
	// the server records no flight). The client's recorder adopts it, so
	// the two processes' dumps correlate by ID.
	FlightID uint64
	// SendUnixMicro is the server's clock (µs since the Unix epoch) just
	// before the frame hit the socket.
	SendUnixMicro int64
	RoI           frame.Rect
	Payload       []byte
}

// frameFlagKey is the frame flags-byte bit marking a reference (intra)
// frame; no other bit is defined.
const frameFlagKey = 1 << 0

// InputPacket carries one user-input event.
type InputPacket struct {
	Seq     uint32
	Payload []byte
}

// StatsPacket is the telemetry backchannel: a periodic client → server
// report of client-observed quality, piggybacked on the input path. The
// percentiles are computed over the client's recent window (WindowFrames
// frames); Dropped and Misses are cumulative for the session, so the
// server can difference successive reports.
type StatsPacket struct {
	Seq          uint32
	WindowFrames uint32 // frames in the percentile window of this report
	Dropped      uint32 // cumulative frames lost (index gaps + decode failures)
	Misses       uint32 // cumulative client-side deadline misses
	// Client-side stage latencies over the window.
	DecodeP50, DecodeP99 time.Duration
	SRP50, SRP99         time.Duration
	// End-to-end frame age (server send → client present, clock-offset
	// corrected) over the window.
	AgeP50, AgeP99 time.Duration
}

// Subscribe is a client's request to spectate an existing publish channel
// instead of opening a game session: the server replies with the
// channel's cached Accept geometry, replays the cached keyframe and fans
// the live GOP tail out to the subscriber. Like a Hello it carries the
// client's version and send timestamp, so spectators get the same clock
// sync as players.
type Subscribe struct {
	// Channel names the publish channel to attach to (required).
	Channel string
	// Device identifies the spectator (shows up in logs and flight dumps).
	Device string
	// Version is the subscriber's protocol version (Client.Subscribe fills
	// in ProtocolVersion when it is 0).
	Version int
	// SendUnixMicro is the subscriber's clock when the Subscribe was
	// written — T0 of its Cristian offset estimate.
	SendUnixMicro int64
}

// PingPacket is a liveness probe. Either endpoint may send one at any
// point after the handshake; the receiver must answer with a Pong echoing
// Seq and SendUnixMicro. The timestamp is the *pinger's* clock — the
// responder never interprets it, so RTT sampling needs no clock sync.
type PingPacket struct {
	Seq           uint32
	SendUnixMicro int64
}

// PongPacket answers a Ping: Seq and EchoUnixMicro are copied from the
// ping, so the pinger computes RTT = now − EchoUnixMicro on its own clock
// and matches responses to probes by sequence number.
type PongPacket struct {
	Seq           uint32
	EchoUnixMicro int64
}

// versionError is the parse error for a Hello, Subscribe or Accept that
// does not open with this build's magic and ProtocolVersion. The rest of
// such a body is not parsed: its field list belongs to another version.
type versionError struct {
	msg MsgType
	got int // the peer's version; -1 when the magic is wrong
}

// peer names the version the peer speaks.
func (e *versionError) peer() string {
	if e.got < 0 {
		return fmt.Sprintf("pre-v%d (no magic)", ProtocolVersion)
	}
	return fmt.Sprintf("v%d", e.got)
}

func (e *versionError) Error() string {
	return fmt.Sprintf("%v: %v is protocol %s, this build speaks v%d", ErrProtocol, e.msg, e.peer(), ProtocolVersion)
}

func (e *versionError) Unwrap() error { return ErrProtocol }

// writeMsg frames a message body.
func writeMsg(w io.Writer, t MsgType, body []byte) error {
	if len(body) > MaxBody {
		return fmt.Errorf("%w: body %d exceeds limit", ErrProtocol, len(body))
	}
	hdr := make([]byte, 1, 1+binary.MaxVarintLen32)
	hdr[0] = byte(t)
	hdr = binary.AppendUvarint(hdr, uint64(len(body)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(body) == 0 {
		// Skip empty writes: synchronous transports (net.Pipe) block a
		// zero-length Write until a matching Read that will never come.
		return nil
	}
	_, err := w.Write(body)
	return err
}

// readMsg reads one framed message.
func readMsg(r io.Reader) (MsgType, []byte, error) {
	var tb [1]byte
	if _, err := io.ReadFull(r, tb[:]); err != nil {
		return 0, nil, err
	}
	br := byteReader{r: r}
	n, err := binary.ReadUvarint(&br)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: bad length: %v", ErrProtocol, err)
	}
	if n > MaxBody {
		return 0, nil, fmt.Errorf("%w: body %d exceeds limit", ErrProtocol, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("%w: short body: %v", ErrProtocol, err)
	}
	return MsgType(tb[0]), body, nil
}

type byteReader struct{ r io.Reader }

func (b *byteReader) ReadByte() (byte, error) {
	var buf [1]byte
	_, err := io.ReadFull(b.r, buf[:])
	return buf[0], err
}

// --- field encoding -----------------------------------------------------------

// appendHeader opens a Hello, Subscribe or Accept body: the magic, then
// the sender's protocol version.
func appendHeader(body []byte, version int) []byte {
	body = append(body, protocolMagic...)
	return binary.AppendUvarint(body, uint64(version))
}

// appendBytes appends a uvarint length followed by the raw bytes.
func appendBytes[S string | []byte](body []byte, s S) []byte {
	body = binary.AppendUvarint(body, uint64(len(s)))
	return append(body, s...)
}

// clampMicro guards timestamp encoding: timestamps ride as uvarints, so a
// negative (pre-epoch, i.e. corrupt) value encodes as 0 rather than 2^64-µs.
func clampMicro(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// decoder reads a message body field by field. The first failure sticks
// and later reads return zero values, so a parser reads its whole field
// list and checks once, with end.
type decoder struct {
	msg MsgType
	b   []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %v: truncated %s", ErrProtocol, d.msg, what)
	}
}

// header checks the magic and protocol version that open a Hello,
// Subscribe or Accept body, and returns the version.
func (d *decoder) header() int {
	if !bytes.HasPrefix(d.b, []byte(protocolMagic)) {
		d.err = &versionError{msg: d.msg, got: -1}
		return 0
	}
	d.b = d.b[len(protocolMagic):]
	v := int(d.uvarint("version"))
	if d.err == nil && v != ProtocolVersion {
		d.err = &versionError{msg: d.msg, got: v}
	}
	return v
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail(what)
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// bytes reads a uvarint length followed by that many raw bytes; the result
// aliases the body.
func (d *decoder) bytes(what string) []byte {
	n := d.uvarint(what)
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.fail(what)
		return nil
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b
}

func (d *decoder) string(what string) string { return string(d.bytes(what)) }

// end returns the first failure, or an error if bytes remain: every
// message has exactly one field list.
func (d *decoder) end() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%w: %v: %d trailing bytes", ErrProtocol, d.msg, len(d.b))
	}
	return d.err
}

// --- message bodies -----------------------------------------------------------

// WriteHello sends a Hello message: magic, version, device, RoI window,
// scale, send timestamp, channel, resume token.
func WriteHello(w io.Writer, h Hello) error {
	if len(h.Device) > 255 {
		return fmt.Errorf("%w: device name too long", ErrProtocol)
	}
	if len(h.Channel) > 255 {
		return fmt.Errorf("%w: channel name too long", ErrProtocol)
	}
	if len(h.ResumeToken) > 255 {
		return fmt.Errorf("%w: resume token too long", ErrProtocol)
	}
	body := appendHeader(nil, h.Version)
	body = appendBytes(body, h.Device)
	body = binary.AppendUvarint(body, uint64(h.RoIWindow))
	body = binary.AppendUvarint(body, uint64(h.Scale))
	body = binary.AppendUvarint(body, clampMicro(h.SendUnixMicro))
	body = appendBytes(body, h.Channel)
	body = appendBytes(body, h.ResumeToken)
	return writeMsg(w, MsgHello, body)
}

func parseHello(body []byte) (Hello, error) {
	d := decoder{msg: MsgHello, b: body}
	h := Hello{Version: d.header()}
	h.Device = d.string("device name")
	h.RoIWindow = int(d.uvarint("roi window"))
	h.Scale = int(d.uvarint("scale"))
	h.SendUnixMicro = int64(d.uvarint("send time"))
	h.Channel = d.string("channel name")
	h.ResumeToken = d.string("resume token")
	if err := d.end(); err != nil {
		return Hello{}, err
	}
	if h.RoIWindow <= 0 || h.Scale <= 0 {
		return Hello{}, fmt.Errorf("%w: non-positive hello fields", ErrProtocol)
	}
	return h, nil
}

// WriteSubscribe sends a Subscribe message: magic, version, channel,
// device, send timestamp.
func WriteSubscribe(w io.Writer, s Subscribe) error {
	if s.Channel == "" {
		return fmt.Errorf("%w: subscribe without channel", ErrProtocol)
	}
	if len(s.Channel) > 255 {
		return fmt.Errorf("%w: channel name too long", ErrProtocol)
	}
	if len(s.Device) > 255 {
		return fmt.Errorf("%w: device name too long", ErrProtocol)
	}
	body := appendHeader(nil, s.Version)
	body = appendBytes(body, s.Channel)
	body = appendBytes(body, s.Device)
	body = binary.AppendUvarint(body, clampMicro(s.SendUnixMicro))
	return writeMsg(w, MsgSubscribe, body)
}

func parseSubscribe(body []byte) (Subscribe, error) {
	d := decoder{msg: MsgSubscribe, b: body}
	s := Subscribe{Version: d.header()}
	s.Channel = d.string("channel name")
	s.Device = d.string("device name")
	s.SendUnixMicro = int64(d.uvarint("send time"))
	if err := d.end(); err != nil {
		return Subscribe{}, err
	}
	if s.Channel == "" {
		return Subscribe{}, fmt.Errorf("%w: subscribe without channel", ErrProtocol)
	}
	return s, nil
}

// WriteAccept sends an Accept message: magic, version, width, height, GOP
// size, quantizer step, the server's receive/send clock pair, resume token.
func WriteAccept(w io.Writer, a Accept) error {
	if len(a.Token) > 255 {
		return fmt.Errorf("%w: resume token too long", ErrProtocol)
	}
	body := appendHeader(nil, a.Version)
	for _, v := range []int{a.Width, a.Height, a.GOPSize, a.QStep} {
		body = binary.AppendUvarint(body, uint64(v))
	}
	body = binary.AppendUvarint(body, clampMicro(a.RecvUnixMicro))
	body = binary.AppendUvarint(body, clampMicro(a.SendUnixMicro))
	body = appendBytes(body, a.Token)
	return writeMsg(w, MsgAccept, body)
}

func parseAccept(body []byte) (Accept, error) {
	d := decoder{msg: MsgAccept, b: body}
	a := Accept{Version: d.header()}
	a.Width = int(d.uvarint("width"))
	a.Height = int(d.uvarint("height"))
	a.GOPSize = int(d.uvarint("gop size"))
	a.QStep = int(d.uvarint("qstep"))
	a.RecvUnixMicro = int64(d.uvarint("recv time"))
	a.SendUnixMicro = int64(d.uvarint("send time"))
	a.Token = d.string("resume token")
	if err := d.end(); err != nil {
		return Accept{}, err
	}
	if a.Width <= 0 || a.Height <= 0 || a.GOPSize <= 0 || a.QStep <= 0 {
		return Accept{}, fmt.Errorf("%w: non-positive accept fields", ErrProtocol)
	}
	return a, nil
}

// WriteReject sends a Reject message: code byte, reason (truncated to 255
// bytes), retry-after hint.
func WriteReject(w io.Writer, rej Reject) error {
	if len(rej.Reason) > 255 {
		rej.Reason = rej.Reason[:255]
	}
	body := []byte{byte(rej.Code)}
	body = appendBytes(body, rej.Reason)
	body = binary.AppendUvarint(body, uint64(rej.RetryAfterMs))
	return writeMsg(w, MsgReject, body)
}

func parseReject(body []byte) (Reject, error) {
	d := decoder{msg: MsgReject, b: body}
	rej := Reject{Code: RejectCode(d.byte("code"))}
	rej.Reason = d.string("reason")
	rej.RetryAfterMs = uint32(d.uvarint("retry-after"))
	return rej, d.end()
}

// WritePing sends a liveness probe.
func WritePing(w io.Writer, p PingPacket) error {
	body := binary.AppendUvarint(nil, uint64(p.Seq))
	body = binary.AppendUvarint(body, clampMicro(p.SendUnixMicro))
	return writeMsg(w, MsgPing, body)
}

func parsePing(body []byte) (PingPacket, error) {
	d := decoder{msg: MsgPing, b: body}
	p := PingPacket{Seq: uint32(d.uvarint("seq")), SendUnixMicro: int64(d.uvarint("send time"))}
	return p, d.end()
}

// WritePong answers a Ping, echoing its sequence number and timestamp.
func WritePong(w io.Writer, p PongPacket) error {
	body := binary.AppendUvarint(nil, uint64(p.Seq))
	body = binary.AppendUvarint(body, clampMicro(p.EchoUnixMicro))
	return writeMsg(w, MsgPong, body)
}

func parsePong(body []byte) (PongPacket, error) {
	d := decoder{msg: MsgPong, b: body}
	p := PongPacket{Seq: uint32(d.uvarint("seq")), EchoUnixMicro: int64(d.uvarint("echo time"))}
	return p, d.end()
}

// WriteFrame sends a FramePacket: index, flags, flight ID, send timestamp,
// RoI, payload.
func WriteFrame(w io.Writer, f FramePacket) error {
	body := binary.AppendUvarint(nil, uint64(f.Index))
	var flags byte
	if f.Keyenc {
		flags |= frameFlagKey
	}
	body = append(body, flags)
	body = binary.AppendUvarint(body, f.FlightID)
	body = binary.AppendUvarint(body, clampMicro(f.SendUnixMicro))
	for _, v := range []int{f.RoI.X, f.RoI.Y, f.RoI.W, f.RoI.H} {
		body = binary.AppendUvarint(body, uint64(v))
	}
	body = appendBytes(body, f.Payload)
	return writeMsg(w, MsgFrame, body)
}

func parseFrame(body []byte) (FramePacket, error) {
	d := decoder{msg: MsgFrame, b: body}
	f := FramePacket{Index: uint32(d.uvarint("index"))}
	flags := d.byte("flags")
	f.Keyenc = flags&frameFlagKey != 0
	f.FlightID = d.uvarint("flight id")
	f.SendUnixMicro = int64(d.uvarint("send time"))
	f.RoI.X = int(d.uvarint("roi x"))
	f.RoI.Y = int(d.uvarint("roi y"))
	f.RoI.W = int(d.uvarint("roi w"))
	f.RoI.H = int(d.uvarint("roi h"))
	f.Payload = d.bytes("payload")
	if err := d.end(); err != nil {
		return FramePacket{}, err
	}
	if flags&^frameFlagKey != 0 {
		return FramePacket{}, fmt.Errorf("%w: unknown frame flags %#x", ErrProtocol, flags)
	}
	return f, nil
}

// WriteInput sends an InputPacket.
func WriteInput(w io.Writer, in InputPacket) error {
	body := binary.AppendUvarint(nil, uint64(in.Seq))
	body = appendBytes(body, in.Payload)
	return writeMsg(w, MsgInput, body)
}

func parseInput(body []byte) (InputPacket, error) {
	d := decoder{msg: MsgInput, b: body}
	in := InputPacket{Seq: uint32(d.uvarint("seq"))}
	in.Payload = d.bytes("payload")
	return in, d.end()
}

// WriteBye sends a Bye message.
func WriteBye(w io.Writer) error { return writeMsg(w, MsgBye, nil) }

// WriteStats sends a StatsPacket (the client → server backchannel).
func WriteStats(w io.Writer, st StatsPacket) error {
	body := binary.AppendUvarint(nil, uint64(st.Seq))
	body = binary.AppendUvarint(body, uint64(st.WindowFrames))
	body = binary.AppendUvarint(body, uint64(st.Dropped))
	body = binary.AppendUvarint(body, uint64(st.Misses))
	for _, d := range []time.Duration{st.DecodeP50, st.DecodeP99, st.SRP50, st.SRP99, st.AgeP50, st.AgeP99} {
		body = binary.AppendUvarint(body, clampMicro(int64(d/time.Microsecond)))
	}
	return writeMsg(w, MsgStats, body)
}

func parseStats(body []byte) (StatsPacket, error) {
	d := decoder{msg: MsgStats, b: body}
	u32 := func() uint32 { return uint32(d.uvarint("counter")) }
	us := func() time.Duration { return time.Duration(d.uvarint("percentile")) * time.Microsecond }
	st := StatsPacket{Seq: u32(), WindowFrames: u32(), Dropped: u32(), Misses: u32()}
	st.DecodeP50, st.DecodeP99 = us(), us()
	st.SRP50, st.SRP99 = us(), us()
	st.AgeP50, st.AgeP99 = us(), us()
	return st, d.end()
}

// Msg is a decoded protocol message; exactly one field is set.
type Msg struct {
	Type      MsgType
	Hello     *Hello
	Accept    *Accept
	Frame     *FramePacket
	Input     *InputPacket
	Reject    *Reject
	Stats     *StatsPacket
	Subscribe *Subscribe
	Ping      *PingPacket
	Pong      *PongPacket
}

// ReadMsg reads and decodes the next message from r. A Hello, Subscribe or
// Accept from another protocol version fails with an error wrapping
// ErrProtocol that names both versions.
func ReadMsg(r io.Reader) (Msg, error) {
	t, body, err := readMsg(r)
	if err != nil {
		return Msg{}, err
	}
	out := Msg{Type: t}
	switch t {
	case MsgHello:
		h, err := parseHello(body)
		if err != nil {
			return Msg{}, err
		}
		out.Hello = &h
	case MsgAccept:
		a, err := parseAccept(body)
		if err != nil {
			return Msg{}, err
		}
		out.Accept = &a
	case MsgFrame:
		f, err := parseFrame(body)
		if err != nil {
			return Msg{}, err
		}
		out.Frame = &f
	case MsgInput:
		in, err := parseInput(body)
		if err != nil {
			return Msg{}, err
		}
		out.Input = &in
	case MsgBye:
		if len(body) > 0 {
			return Msg{}, fmt.Errorf("%w: bye: %d trailing bytes", ErrProtocol, len(body))
		}
	case MsgReject:
		rej, err := parseReject(body)
		if err != nil {
			return Msg{}, err
		}
		out.Reject = &rej
	case MsgStats:
		st, err := parseStats(body)
		if err != nil {
			return Msg{}, err
		}
		out.Stats = &st
	case MsgSubscribe:
		sub, err := parseSubscribe(body)
		if err != nil {
			return Msg{}, err
		}
		out.Subscribe = &sub
	case MsgPing:
		p, err := parsePing(body)
		if err != nil {
			return Msg{}, err
		}
		out.Ping = &p
	case MsgPong:
		p, err := parsePong(body)
		if err != nil {
			return Msg{}, err
		}
		out.Pong = &p
	default:
		return Msg{}, fmt.Errorf("%w: unknown message type %d", ErrProtocol, t)
	}
	return out, nil
}
