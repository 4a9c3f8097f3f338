package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/telemetry"
)

// This file is the broadcast relay (DESIGN.md §14): the RTMP-style
// publish/subscribe layer that turns one publisher session's encoded GOP
// stream into N spectator streams without re-encoding.
//
//   - A publisher registers a Channel under a name; its session's frame
//     packets are Published into the channel from the encode tap.
//   - The channel caches the stream geometry (Accept) and the last intra
//     frame — the sequence-header cache — so a late joiner receives
//     (cached config, cached keyframe, live tail) and decodes immediately
//     instead of waiting out the GOP.
//   - Every subscriber has its own bounded queue. A slow reader climbs a
//     two-rung eviction ladder: first drop-to-keyframe (its queue is
//     flushed and deltas are skipped until the next intra — the stream
//     stays decodable), then, if the queue overflows again with zero
//     reader progress since the flush, disconnect. The publisher never
//     blocks on a subscriber.

// Relay errors, surfaced to subscribers as protocol-level rejects.
var (
	errUnknownChannel = errors.New("stream: unknown channel")
	errChannelTaken   = errors.New("stream: channel already has a publisher")
	errChannelClosed  = errors.New("stream: channel closed")
	errSubscriberCap  = errors.New("stream: subscriber limit reached")
)

// DefaultSubscriberQueue is the default per-subscriber send-queue depth:
// half a second of 60 FPS frames — enough to ride out a scheduling hiccup,
// small enough that a stalled reader trips the eviction ladder within one
// GOP rather than buffering the whole stream.
const DefaultSubscriberQueue = 32

// relayFrame is one fan-out unit: the shared packet (its payload is an
// immutable copy owned by the relay) plus its enqueue time, from which a
// subscriber's queue age is measured.
type relayFrame struct {
	pkt FramePacket
	at  time.Time
}

// relayMetrics holds the relay's telemetry handles, resolved once. All
// fields are nil-safe no-ops without a registry.
type relayMetrics struct {
	channels    *telemetry.Gauge     // stream_relay_channels_active
	subscribers *telemetry.Gauge     // stream_subscribers_active
	fanout      *telemetry.Counter   // frames enqueued to subscribers
	dropped     *telemetry.Counter   // frames flushed by drop-to-keyframe
	dropToKey   *telemetry.Counter   // rung-1 ladder entries
	evicted     *telemetry.Counter   // rung-2 disconnects
	lateJoins   *telemetry.Counter   // subscribers served a cached keyframe
	parked      *telemetry.Gauge     // stream_relay_channels_parked
	parks       *telemetry.Counter   // publisher drops that parked a channel
	reclaims    *telemetry.Counter   // parked channels reclaimed by resume token
	parkExpired *telemetry.Counter   // parks that ran out the grace window
	parkStall   *telemetry.Histogram // stream_relay_park_stall_seconds: park → reclaim
}

// Relay is the channel registry: publishers create channels, subscribers
// attach to them. All methods are safe for concurrent use.
type Relay struct {
	reg     *telemetry.Registry
	mets    relayMetrics
	maxSubs int
	queue   int
	grace   time.Duration

	mu       sync.Mutex
	channels map[string]*Channel
	closed   bool
}

// SetParkGrace sets how long a publisher-dropped channel stays parked
// awaiting a resume-token reclaim (<= 0 disables parking: a dropped
// publisher closes its channel immediately).
func (r *Relay) SetParkGrace(d time.Duration) { r.grace = d }

// NewRelay builds a relay. maxSubs bounds subscribers per channel
// (<=0 means 16); queue is the per-subscriber send-queue depth (<=0 means
// DefaultSubscriberQueue). reg may be nil.
func NewRelay(reg *telemetry.Registry, maxSubs, queue int) *Relay {
	if maxSubs <= 0 {
		maxSubs = 16
	}
	if queue <= 0 {
		queue = DefaultSubscriberQueue
	}
	return &Relay{
		reg: reg,
		mets: relayMetrics{
			channels:    reg.Gauge("stream_relay_channels_active"),
			subscribers: reg.Gauge("stream_subscribers_active"),
			fanout:      reg.Counter("stream_relay_frames_fanout_total"),
			dropped:     reg.Counter("stream_relay_dropped_frames_total"),
			dropToKey:   reg.Counter("stream_relay_drop_to_key_total"),
			evicted:     reg.Counter("stream_relay_subscribers_evicted_total"),
			lateJoins:   reg.Counter("stream_relay_late_joins_total"),
			parked:      reg.Gauge("stream_relay_channels_parked"),
			parks:       reg.Counter("stream_relay_channel_parks_total"),
			reclaims:    reg.Counter("stream_relay_channel_reclaims_total"),
			parkExpired: reg.Counter("stream_relay_park_expired_total"),
			parkStall:   reg.Histogram("stream_relay_park_stall_seconds", telemetry.LatencyBuckets()),
		},
		maxSubs:  maxSubs,
		queue:    queue,
		channels: map[string]*Channel{},
	}
}

// Create registers a new publish channel under name, caching acc as the
// geometry every subscriber's Accept is built from. Fails if the name
// already has a live publisher.
func (r *Relay) Create(name string, acc Accept) (*Channel, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errChannelClosed
	}
	if _, ok := r.channels[name]; ok {
		return nil, errChannelTaken
	}
	ch := &Channel{
		name:   name,
		relay:  r,
		accept: acc,
		subs:   map[*subscriber]struct{}{},
		// Per-channel subscriber gauge: unregistered when the channel
		// closes, so channel churn doesn't grow /metrics without bound.
		subGauge: r.reg.Gauge("stream_channel_subscribers_" + metricLabel(name)),
	}
	r.channels[name] = ch
	r.mets.channels.Add(1)
	return ch, nil
}

// Lookup returns the named channel, or nil if no publisher owns it.
func (r *Relay) Lookup(name string) *Channel {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.channels[name]
}

// remove unlinks a closed channel from the registry.
func (r *Relay) remove(ch *Channel) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.channels[ch.name] == ch {
		delete(r.channels, ch.name)
		r.mets.channels.Add(-1)
	}
}

// Shutdown force-closes every channel: subscriber queues are closed with
// the queued tail abandoned, so their writers say Bye and exit promptly.
func (r *Relay) Shutdown() {
	r.mu.Lock()
	r.closed = true
	chans := make([]*Channel, 0, len(r.channels))
	for _, ch := range r.channels {
		chans = append(chans, ch)
	}
	r.mu.Unlock()
	for _, ch := range chans {
		ch.close(true)
	}
}

// Channel is one publisher's broadcast stream: the cached Accept geometry,
// the cached last intra frame and the live subscriber set.
//
// A channel whose publisher drops uncleanly is *parked* rather than closed
// (DESIGN.md §15): it keeps its registry entry (so a second publisher's
// Hello still gets RejectChannelTaken), its cached geometry and keyframe,
// and its live subscribers, for a grace window. A publisher reconnecting
// with the channel's resume token reclaims it — subscribers ride through
// with a bounded stall instead of a disconnect — and a park that runs out
// the window closes the channel gracefully.
type Channel struct {
	name     string
	relay    *Relay
	accept   Accept
	subGauge *telemetry.Gauge

	mu        sync.Mutex
	key       *FramePacket // last intra frame; payload owned by the relay
	subs      map[*subscriber]struct{}
	closed    bool
	token     string // resume token that may reclaim a park
	origin    string // first publisher's identity, stable across reclaims
	parked    bool
	parkedAt  time.Time
	parkTimer *time.Timer
}

// setResume records the session's resume token and the publisher identity
// the channel stays correlated with across reconnects.
func (ch *Channel) setResume(token, origin string) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.token = token
	if ch.origin == "" {
		ch.origin = origin
	}
}

// Origin returns the channel's first publisher identity (its remote
// address), stable across resume reclaims — the label per-session metrics
// and flight records correlate a reconnecting publisher under.
func (ch *Channel) Origin() string {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.origin
}

// park begins the grace window after a publisher drop. Everything is
// retained — registry entry, cached Accept, cached keyframe, subscribers —
// awaiting a resume-token reclaim; the timer closes the channel gracefully
// if none arrives. Returns false (caller should close instead) when
// parking is disabled, the channel has no resume token, or it is already
// closed.
func (ch *Channel) park() bool {
	grace := ch.relay.grace
	ch.mu.Lock()
	if grace <= 0 || ch.closed || ch.parked || ch.token == "" {
		ch.mu.Unlock()
		return false
	}
	ch.parked = true
	ch.parkedAt = time.Now()
	ch.parkTimer = time.AfterFunc(grace, ch.expire)
	ch.mu.Unlock()
	ch.relay.mets.parks.Inc()
	ch.relay.mets.parked.Add(1)
	return true
}

// expire ends a park whose grace window ran out: the channel closes
// gracefully (subscribers get their queued tail, then a Bye). A reclaim
// that lands first wins — both paths check parked under the channel mutex.
func (ch *Channel) expire() {
	ch.mu.Lock()
	if ch.closed || !ch.parked {
		ch.mu.Unlock()
		return
	}
	ch.parked = false
	ch.parkTimer = nil
	ch.mu.Unlock()
	ch.relay.mets.parked.Add(-1)
	ch.relay.mets.parkExpired.Inc()
	ch.close(false)
}

// Reclaim hands the parked channel registered under name back to a
// publisher that presented its resume token: the grace timer stops, and
// any subscriber sitting in drop-to-keyframe state is re-seeded from the
// keyframe cache so it presents immediately while the reclaimed publisher's
// opening intra restarts the live tail. A wrong token — or a live,
// un-parked channel — comes back as errChannelTaken, exactly what a second
// publisher's Hello must see until the park expires.
func (r *Relay) Reclaim(name, token string) (*Channel, error) {
	r.mu.Lock()
	ch := r.channels[name]
	r.mu.Unlock()
	if ch == nil {
		return nil, errUnknownChannel
	}
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return nil, errUnknownChannel
	}
	if !ch.parked || token == "" || token != ch.token {
		ch.mu.Unlock()
		return nil, errChannelTaken
	}
	ch.parked = false
	if ch.parkTimer != nil {
		ch.parkTimer.Stop()
		ch.parkTimer = nil
	}
	stall := time.Since(ch.parkedAt)
	now := time.Now()
	for sub := range ch.subs {
		if !sub.waitKey || ch.key == nil {
			continue
		}
		select {
		case sub.q <- relayFrame{pkt: *ch.key, at: now}:
			sub.waitKey = false
			r.mets.lateJoins.Inc()
		default:
			// Still wedged; the eviction ladder keeps owning it.
		}
	}
	ch.mu.Unlock()
	r.mets.parked.Add(-1)
	r.mets.reclaims.Inc()
	r.mets.parkStall.ObserveDuration(stall)
	return ch, nil
}

// Parked reports whether the channel is in its post-publisher-drop grace
// window.
func (ch *Channel) Parked() bool {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.parked
}

// Name returns the channel's registered name.
func (ch *Channel) Name() string { return ch.name }

// Publish fans one frame packet out to every subscriber — the publisher
// session's Tap. The payload is copied at most once per frame (when a
// subscriber or the keyframe cache needs it), shared read-only from then
// on; pkt.SendUnixMicro is re-stamped per subscriber at its own socket
// write, but the index and flight ID ride through unchanged so every
// spectator's flight dump correlates with the publisher's.
//
// A subscriber whose queue is full is never waited on: its queue is
// flushed and it skips deltas until the next intra (drop-to-keyframe); if
// the queue overflows again with no reader progress since that flush —
// a stalled reader, not a slow one — it is disconnected.
func (ch *Channel) Publish(pkt FramePacket) {
	m := &ch.relay.mets
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.closed {
		return
	}
	if pkt.Keyenc || len(ch.subs) > 0 {
		pkt.Payload = append([]byte(nil), pkt.Payload...)
	}
	if pkt.Keyenc {
		k := pkt
		ch.key = &k
	}
	now := time.Now()
	for sub := range ch.subs {
		if sub.waitKey && !pkt.Keyenc {
			// Dropped to keyframe: deltas before the next intra are
			// undecodable for this reader, skip them outright.
			m.dropped.Inc()
			continue
		}
		select {
		case sub.q <- relayFrame{pkt: pkt, at: now}:
			sub.waitKey = false
			m.fanout.Inc()
		default:
			if sub.dropArmed && sub.consumed.Load() == sub.consumedAtDrop {
				// Rung 2: the queue overflowed again and the reader has
				// consumed nothing since the last flush — a stalled
				// socket, not a scheduling hiccup. Disconnect — its
				// writer sees the closed queue, sends Bye and hangs up.
				ch.dropLocked(sub)
				sub.evicted.Store(true)
				m.evicted.Inc()
				continue
			}
			// Rung 1: drop-to-keyframe. Flush everything queued (the
			// reader is behind by a full queue) and resume at the next
			// intra — or this one, if that's what overflowed.
			flushed := 0
		flush:
			for {
				select {
				case <-sub.q:
					flushed++
				default:
					break flush
				}
			}
			m.dropped.Add(int64(flushed))
			m.dropToKey.Inc()
			sub.dropArmed = true
			sub.consumedAtDrop = sub.consumed.Load()
			if pkt.Keyenc {
				// The overflowing frame is itself an intra: the queue was
				// just emptied, so there is room now.
				sub.q <- relayFrame{pkt: pkt, at: now}
				sub.waitKey = false
				m.fanout.Inc()
			} else {
				sub.waitKey = true
				m.dropped.Inc()
			}
		}
	}
}

// PublishFrame adapts Publish to the pipeline's encode tap
// (pipeline.PacketTap): the engine's server stage calls it with its pooled
// bitstream buffer, Publish copies what it keeps.
func (ch *Channel) PublishFrame(index int, payload []byte, key bool, roi frame.Rect) {
	ch.Publish(FramePacket{Index: uint32(index), Keyenc: key, RoI: roi, Payload: payload})
}

// Subscribe attaches a new subscriber. The cached keyframe (if any) is
// pre-queued so a late joiner presents a frame immediately; the live tail
// follows from the next published packet.
func (ch *Channel) Subscribe(name string) (*subscriber, error) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.closed {
		return nil, errChannelClosed
	}
	if len(ch.subs) >= ch.relay.maxSubs {
		return nil, errSubscriberCap
	}
	sub := &subscriber{
		ch:   ch,
		name: name,
		q:    make(chan relayFrame, ch.relay.queue),
	}
	if ch.key != nil {
		// Guaranteed room: the queue is fresh and depth >= 1.
		sub.q <- relayFrame{pkt: *ch.key, at: time.Now()}
		ch.relay.mets.lateJoins.Inc()
	}
	ch.subs[sub] = struct{}{}
	ch.subGauge.Add(1)
	ch.relay.mets.subscribers.Add(1)
	return sub, nil
}

// Accept returns the channel's cached stream geometry (version and clock
// fields zero — those are per-subscriber).
func (ch *Channel) Accept() Accept { return ch.accept }

// Subscribers returns the current subscriber count.
func (ch *Channel) Subscribers() int {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return len(ch.subs)
}

// dropLocked removes sub and closes its queue. Caller holds ch.mu; all
// queue closes happen here, under the lock, so Publish can never race a
// send against a close.
func (ch *Channel) dropLocked(sub *subscriber) {
	if _, ok := ch.subs[sub]; !ok {
		return
	}
	delete(ch.subs, sub)
	ch.subGauge.Add(-1)
	ch.relay.mets.subscribers.Add(-1)
	close(sub.q)
}

// detach removes a subscriber that is leaving on its own (client Bye, or a
// dead socket). Idempotent, and safe against a concurrent eviction.
func (ch *Channel) detach(sub *subscriber) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.dropLocked(sub)
}

// close ends the channel. Graceful (abandon false: publisher ran out of
// frames) lets subscriber writers drain their queued tail before the Bye;
// abandon true (server shutdown) makes them skip the tail and Bye at once.
// Idempotent — a publisher's deferred close after Relay.Shutdown is a
// no-op.
func (ch *Channel) close(abandon bool) {
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return
	}
	ch.closed = true
	if ch.parkTimer != nil {
		ch.parkTimer.Stop()
		ch.parkTimer = nil
	}
	if ch.parked {
		// Shutdown while parked: the grace window ends with the channel.
		ch.parked = false
		ch.relay.mets.parked.Add(-1)
	}
	for sub := range ch.subs {
		if abandon {
			sub.abandon.Store(true)
		}
		ch.dropLocked(sub)
	}
	ch.key = nil
	ch.mu.Unlock()
	ch.relay.remove(ch)
	ch.relay.reg.Unregister("stream_channel_subscribers_" + metricLabel(ch.name))
}

// subscriber is one spectator's relay endpoint: a bounded frame queue plus
// the eviction-ladder state. waitKey is guarded by the channel mutex; the
// queue itself is the only shared path between Publish and the writer.
type subscriber struct {
	ch   *Channel
	name string
	q    chan relayFrame

	waitKey        bool   // under ch.mu: flushed, skipping deltas until an intra
	dropArmed      bool   // under ch.mu: at least one drop-to-keyframe happened
	consumedAtDrop uint64 // under ch.mu: consumed count at the last flush

	consumed atomic.Uint64 // frames the writer has taken off the queue
	abandon  atomic.Bool   // server shutdown: writer skips the queued tail
	evicted  atomic.Bool   // removed by the ladder's disconnect rung
}

// Consumed marks one frame taken off the queue by the subscriber's writer —
// the reader-progress signal the eviction ladder's disconnect rung keys
// off: a queue that overflows twice with no consumption in between means
// the reader is stalled, not merely slow.
func (s *subscriber) Consumed() { s.consumed.Add(1) }

// Frames returns the subscriber's receive queue. It is closed when the
// publisher ends, the server shuts down, or the eviction ladder
// disconnects this subscriber.
func (s *subscriber) Frames() <-chan relayFrame { return s.q }

// Evicted reports whether the slow-reader ladder disconnected this
// subscriber.
func (s *subscriber) Evicted() bool { return s.evicted.Load() }

// Abandoned reports whether the server is shutting down and the queued
// tail should be skipped.
func (s *subscriber) Abandoned() bool { return s.abandon.Load() }

// String labels the subscriber in logs.
func (s *subscriber) String() string {
	return fmt.Sprintf("%s@%s", s.name, s.ch.name)
}
