package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gamestreamsr/internal/diag"
	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/telemetry"
)

// SourceFactory creates a fresh FrameSource per session: each client gets
// its own encoder/detector state (stateful codecs cannot be shared).
type SourceFactory func(hello Hello) (FrameSource, error)

// SchedAware is an optional FrameSource capability: sources that run
// parallel kernels (render, detect, encode) implement it to receive the
// session's scheduler client, so their work is dispatched by the session's
// weight/priority instead of the default client's.
type SchedAware interface {
	SetSched(c *parallel.Client)
}

// Shedder is an optional FrameSource capability: sources that can degrade
// quality implement it to receive shed-ladder level changes. Levels are the
// Shed* constants; the source applies everything up to and including the
// given level (0 restores full quality).
type Shedder interface {
	SetShedLevel(level int)
}

// Shed-ladder levels, mildest first. Each level includes the ones below it.
const (
	// ShedNone: full quality.
	ShedNone = 0
	// ShedRoIShrink: halve the RoI window, cutting the NPU-path work ~4×
	// while keeping SR on the most salient region.
	ShedRoIShrink = 1
	// ShedBilinearOnly: drop RoI detection and SR entirely — the client
	// falls back to its GPU bilinear path (the paper's SOTA baseline).
	ShedBilinearOnly = 2
	// ShedDemoted: additionally demote the session's scheduler client to
	// Background priority, so its remaining work only uses worker cycles
	// the on-budget sessions leave idle.
	ShedDemoted = 3
)

// ShedPolicy drives the per-session shed ladder from the session's
// deadline-miss streak: EscalateStreak consecutive misses climb one rung,
// RecoverFrames consecutive on-budget frames descend one.
type ShedPolicy struct {
	// EscalateStreak is the consecutive-miss count that triggers a climb
	// (default 8 — half a 60 FPS GOP of sustained misses, long enough to
	// ignore one-frame spikes).
	EscalateStreak int
	// RecoverFrames is the consecutive on-budget frame count that triggers
	// a descent (default 240 — recovery is deliberately much slower than
	// escalation so the ladder doesn't oscillate at the capacity edge).
	RecoverFrames int
	// MaxLevel caps the ladder (default ShedDemoted).
	MaxLevel int
}

func (p ShedPolicy) withDefaults() ShedPolicy {
	if p.EscalateStreak <= 0 {
		p.EscalateStreak = 8
	}
	if p.RecoverFrames <= 0 {
		p.RecoverFrames = 240
	}
	if p.MaxLevel <= 0 || p.MaxLevel > ShedDemoted {
		p.MaxLevel = ShedDemoted
	}
	return p
}

// AdmissionPolicy keys new-session admission off the live sessions' SLO
// state: a session is admitted only while the aggregate windowed p99 frame
// latency leaves at least MinSlack of headroom against the deadline.
// Requires FlightFrames > 0 (the per-session rings are the latency window);
// without recorders the policy admits everything up to MaxSessions.
type AdmissionPolicy struct {
	// MinSlack is the minimum (deadline − aggregate p99) required to admit
	// (default 0: reject once p99 slack goes negative, i.e. the fleet is
	// already missing deadlines at the tail).
	MinSlack time.Duration
	// MinSamples is the minimum number of delivered frames across the live
	// windows before the policy may reject (default 32) — a cold server
	// admits; rejection needs evidence.
	MinSamples int
}

func (p AdmissionPolicy) withDefaults() AdmissionPolicy {
	if p.MinSamples <= 0 {
		p.MinSamples = 32
	}
	return p
}

// MultiServer accepts and serves many concurrent client sessions — the
// shape a real cloud-gaming host has (the paper's Sunshine hosts one stream
// per machine, GeForce-Now-class services multiplex many). With Sched,
// Admission and Shed configured it is also the control plane: per-session
// scheduler clients, SLO-keyed admission control and a per-session shed
// ladder (see DESIGN.md §12).
//
// Sessions come in two kinds (DESIGN.md §14): a connection opening with a
// Hello is a publisher — it owns a game source and encode pipeline, and
// may register the stream under a channel name — while a connection
// opening with a Subscribe is a spectator attached to an existing
// channel's encoded GOP stream through the relay, costing no extra encode
// work. Spectators have their own cap (MaxSubscribers per channel), their
// own Background-priority scheduler clients, and bounded send queues with
// slow-reader eviction, so they never head-of-line-block the publisher or
// count against player admission.
type MultiServer struct {
	// Accept is the stream geometry announced to every client.
	Accept Accept
	// NewSource builds the per-session frame source.
	NewSource SourceFactory
	// MaxFrames bounds each session (0 = until source EOF).
	MaxFrames int
	// MaxSessions bounds concurrent sessions (default 16); excess
	// connections receive a Reject(capacity) and are closed.
	MaxSessions int
	// OnInput receives input events from any session, tagged by remote
	// address.
	OnInput func(remote string, in InputPacket)
	// Metrics, when non-nil, receives server telemetry: accepted, rejected
	// and active session counts, plus the per-session frame/byte/latency
	// metrics (see ServerOptions.Metrics). Nil is a no-op.
	Metrics *telemetry.Registry
	// FlightFrames, when > 0, attaches a flight recorder of that many
	// frames to every session (see ServerOptions.Flight). The server keeps
	// the recorders of live sessions plus the most recently finished ones,
	// and WriteFlight merges their windows into one Chrome trace (one
	// Perfetto process per session) — the MultiServer itself is the
	// telemetry.FlightDumper behind /debug/flight. Session streak gauges
	// are aggregated max-across-sessions through a frametrace.StreakSet.
	FlightFrames int
	// FlightRetain overrides how many finished sessions' recorders stay
	// dumpable (default 4). Benchmarks that read every session's window
	// after the run raise it.
	FlightRetain int
	// Deadline overrides the per-frame budget the session recorders (and
	// therefore admission and shedding) account against (default
	// frametrace.DefaultDeadline, the 60 FPS frame time).
	Deadline time.Duration
	// Sched, when non-nil, gives every session its own scheduler client
	// (weight 1, Normal priority), threaded into SchedAware sources — the
	// isolation that makes shedding's priority demotion meaningful.
	Sched *parallel.Scheduler
	// Admission, when non-nil, enables SLO-keyed admission control.
	Admission *AdmissionPolicy
	// Shed, when non-nil, enables the per-session shed ladder; it needs
	// FlightFrames > 0 (the recorder's miss streak is the trigger signal).
	Shed *ShedPolicy
	// MaxSubscribers bounds spectators per publish channel (default 16);
	// excess Subscribes receive a Reject(capacity).
	MaxSubscribers int
	// SubscriberQueue is the per-subscriber send-queue depth (default
	// DefaultSubscriberQueue). A reader that falls a full queue behind is
	// dropped to the next keyframe; one that stays stalled for a further
	// GOP is disconnected.
	SubscriberQueue int
	// IdleTimeout is the read-liveness bound: a session (publisher or
	// spectator) that sends nothing — not even a heartbeat — for this long
	// is reaped as dead, so clients must heartbeat (Client.SendPing);
	// slow-but-alive peers stay on the shed and eviction ladders. 0 picks
	// DefaultIdleTimeout; negative disables.
	IdleTimeout time.Duration
	// ParkGrace is how long a channel whose publisher dropped uncleanly
	// stays parked awaiting a resume-token reclaim before it closes and
	// its spectators get their Bye. 0 picks DefaultParkGrace; negative
	// disables parking.
	ParkGrace time.Duration
	// ControlTimeout bounds small control writes (rejects, byes, pongs);
	// 0 picks DefaultControlTimeout.
	ControlTimeout time.Duration
	// Log receives the server's structured log lines (session lifecycle,
	// shed transitions, rejects, reaps), each tagged with session / frame /
	// flight fields. Nil uses logx.Default() — stderr, like the stdlib log
	// package this replaces.
	Log *logx.Logger
	// Diag, when non-nil, is the SLO watchdog: sustained deadline-miss
	// streaks, shed-ladder escalations, admission rejects and session reaps
	// each ask it to freeze a capture bundle (profile ring + goroutine dump
	// + flight trace + log ring); its cooldown turns those asks into at most
	// one bundle per incident.
	Diag *diag.Diag

	mu       sync.Mutex
	sessions map[net.Conn]*session
	pending  map[net.Conn]struct{} // accepted, first message not yet read
	relay    *Relay
	flights  []*sessionFlight
	streaks  *frametrace.StreakSet
	resumes  map[string]string // resume token -> original session identity
	resumeQ  []string          // token issue order, for cap eviction
	listener net.Listener
	closed   bool
	serveWG  sync.WaitGroup
	ctrs     serverCounters
}

// maxResumeRecords caps the token -> identity correlation table; the
// oldest records are evicted first (an evicted token can no longer rename
// a reconnecting session, but channel reclaim is unaffected — the parked
// channel itself holds the authoritative token).
const maxResumeRecords = 1024

// recordResume remembers which session identity a resume token belongs to.
func (s *MultiServer) recordResume(token, identity string) {
	if token == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.resumes == nil {
		s.resumes = make(map[string]string)
	}
	if _, ok := s.resumes[token]; !ok {
		s.resumeQ = append(s.resumeQ, token)
	}
	s.resumes[token] = identity
	for len(s.resumeQ) > maxResumeRecords {
		delete(s.resumes, s.resumeQ[0])
		s.resumeQ = s.resumeQ[1:]
	}
}

// resumeIdentity resolves a replayed resume token to the identity of the
// session that was issued it, correlating a reconnecting client's flight
// records and per-session metrics across connections.
func (s *MultiServer) resumeIdentity(token string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.resumes[token]
	return id, ok
}

// idleTimeout resolves the configured read-liveness bound (0 = disabled).
func (s *MultiServer) idleTimeout() time.Duration {
	if s.IdleTimeout < 0 {
		return 0
	}
	if s.IdleTimeout == 0 {
		return DefaultIdleTimeout
	}
	return s.IdleTimeout
}

// parkGrace resolves the configured park window (0 = disabled).
func (s *MultiServer) parkGrace() time.Duration {
	if s.ParkGrace < 0 {
		return 0
	}
	if s.ParkGrace == 0 {
		return DefaultParkGrace
	}
	return s.ParkGrace
}

// serverCounters holds the accept-path telemetry handles, resolved once in
// Serve so per-connection work never touches the registry map more than a
// handful of times. All fields are nil-safe no-ops without a registry.
type serverCounters struct {
	accepted, rejected         *telemetry.Counter
	rejectedCap, rejectedBusy  *telemetry.Counter
	subsAccepted, subsRejected *telemetry.Counter
	active                     *telemetry.Gauge
}

// session is the per-connection control-plane state.
type session struct {
	remote string
	rec    *frametrace.Recorder
	client *parallel.Client
	shed   *shedSource
}

// sessionFlight pairs one session's flight recorder with its identity.
// channel/spectator carry the relay identity into flight dumps (so a
// merged trace names which channel a track was publishing or watching)
// and let admission skip spectator recorders — a stalled spectator's
// frame ages are its own eviction ladder's business, not a reason to turn
// players away.
type sessionFlight struct {
	remote    string
	channel   string
	spectator bool
	rec       *frametrace.Recorder
	live      bool
}

// retiredFlights bounds how many finished sessions' recorders stay
// dumpable after their connection closes (unless FlightRetain raises it).
const retiredFlights = 4

// errServerClosed is returned by Serve after Shutdown.
var errServerClosed = errors.New("stream: server closed")

// Serve accepts connections from l until the listener fails or Shutdown is
// called. It blocks; run it in a goroutine and use Shutdown to stop. Each
// connection's first message decides what it is: a Hello opens a
// (publisher) game session, a Subscribe attaches a spectator to an
// existing publish channel.
func (s *MultiServer) Serve(l net.Listener) error {
	if s.NewSource == nil {
		return errors.New("stream: MultiServer needs a source factory")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errServerClosed
	}
	s.listener = l
	if s.streaks == nil && s.Metrics != nil && s.FlightFrames > 0 {
		s.streaks = frametrace.NewStreakSet(s.Metrics)
	}
	if s.relay == nil {
		s.relay = NewRelay(s.Metrics, s.MaxSubscribers, s.SubscriberQueue)
		s.relay.SetParkGrace(s.parkGrace())
	}
	if s.sessions == nil {
		s.sessions = make(map[net.Conn]*session)
	}
	if s.pending == nil {
		s.pending = make(map[net.Conn]struct{})
	}
	s.mu.Unlock()
	s.Metrics.GaugeFunc("stream_shed_level_max", s.maxShedLevel)
	s.ctrs = serverCounters{
		accepted:     s.Metrics.Counter("stream_sessions_accepted_total"),
		rejected:     s.Metrics.Counter("stream_sessions_rejected_total"),
		rejectedCap:  s.Metrics.Counter("stream_sessions_rejected_capacity_total"),
		rejectedBusy: s.Metrics.Counter("stream_sessions_rejected_busy_total"),
		subsAccepted: s.Metrics.Counter("stream_subscribers_accepted_total"),
		subsRejected: s.Metrics.Counter("stream_subscribers_rejected_total"),
		active:       s.Metrics.Gauge("stream_sessions_active"),
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return errServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return errServerClosed
		}
		// The conn is tracked as pending until its first message is read,
		// so Shutdown can unblock a handshake that never arrives.
		s.pending[conn] = struct{}{}
		s.mu.Unlock()
		s.serveWG.Add(1)
		go func(conn net.Conn) {
			defer s.serveWG.Done()
			s.handleConn(conn)
		}(conn)
	}
}

// handleConn reads a connection's first message and dispatches: Hello →
// publisher session, Subscribe → spectator session, another protocol
// version → RejectBadHello, anything else → close.
func (s *MultiServer) handleConn(conn net.Conn) {
	msg, err := ReadMsg(conn)
	tFirst := time.Now() // T1 of the client's Cristian offset estimate
	s.mu.Lock()
	delete(s.pending, conn)
	closed := s.closed
	s.mu.Unlock()
	if rej, ok := versionReject(err); ok && !closed {
		s.ctrs.rejected.Inc()
		s.Log.Warn("stream: rejecting session: bad hello", "session", conn.RemoteAddr().String(), "reason", rej.Reason)
		s.rejectConn(conn, rej)
		return
	}
	if err != nil || closed {
		conn.Close()
		return
	}
	switch msg.Type {
	case MsgHello:
		s.servePublisher(conn, *msg.Hello, tFirst)
	case MsgSubscribe:
		s.serveSubscriber(conn, *msg.Subscribe, tFirst)
	default:
		s.Log.Warn("stream: bad opening message, want hello or subscribe",
			"remote", conn.RemoteAddr().String(), "type", msg.Type)
		conn.Close()
	}
}

// busyRetryAfter is the server-suggested redial delay carried in
// capacity/busy rejects: long enough for a session to drain or the SLO
// window to recover, short enough that a waiting client feels responsive.
const busyRetryAfter = 2 * time.Second

// rejectConn tells the client why it is being refused, then closes. The
// caller has already read the client's opening message, so the reject is
// the only unread data in flight when the connection closes. The write is
// bounded (controlWrite) so a peer that never reads cannot wedge the
// goroutine.
func (s *MultiServer) rejectConn(conn net.Conn, rej Reject) {
	defer conn.Close()
	controlWrite(conn, s.Metrics, s.Log, s.ControlTimeout, conn.RemoteAddr().String(), "reject", func() error {
		return WriteReject(conn, rej)
	})
}

// servePublisher runs a game (publisher) session whose Hello has been
// read: session cap, admission control, optional channel registration (or
// a resume-token reclaim of a parked one), then the frame loop with the
// relay tap attached. A publisher that drops uncleanly parks its channel
// for the grace window instead of closing it.
func (s *MultiServer) servePublisher(conn net.Conn, hello Hello, tHello time.Time) {
	max := s.MaxSessions
	if max <= 0 {
		max = 16
	}
	sess := &session{remote: conn.RemoteAddr().String()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	overCap := len(s.sessions) >= max
	if !overCap {
		s.sessions[conn] = sess
	}
	s.mu.Unlock()
	if overCap {
		s.ctrs.rejected.Inc()
		s.ctrs.rejectedCap.Inc()
		s.Log.Warn("stream: rejecting session: capacity", "session", sess.remote, "limit", max)
		s.rejectConn(conn, Reject{
			Code:         RejectCapacity,
			Reason:       fmt.Sprintf("session limit %d reached", max),
			RetryAfterMs: uint32(busyRetryAfter.Milliseconds()),
		})
		return
	}
	unregister := func() {
		s.mu.Lock()
		delete(s.sessions, conn)
		s.mu.Unlock()
	}
	if s.Admission != nil {
		if p99, samples, deadline, ok := s.admit(); !ok {
			unregister()
			s.ctrs.rejected.Inc()
			s.ctrs.rejectedBusy.Inc()
			s.Log.Warn("stream: rejecting session: no SLO headroom",
				"session", sess.remote, "p99", p99, "samples", samples, "deadline", deadline)
			// An admission reject means the fleet is already missing its tail
			// SLO — exactly the moment a postmortem bundle is worth freezing.
			s.Diag.Trigger("admission_reject",
				"session", sess.remote, "p99", p99, "samples", samples, "deadline", deadline)
			s.rejectConn(conn, Reject{
				Code:         RejectBusy,
				Reason:       fmt.Sprintf("no SLO headroom: p99 %v", p99.Round(time.Microsecond)),
				RetryAfterMs: uint32(busyRetryAfter.Milliseconds()),
			})
			return
		}
	}
	// Every session gets a resume token: a reconnecting client replays it
	// to keep its identity (flight records, per-session metrics) and to
	// reclaim a parked channel. A replayed token is re-issued unchanged so
	// the identity stays stable across any number of drops.
	token := hello.ResumeToken
	identity := sess.remote
	if token != "" {
		if orig, ok := s.resumeIdentity(token); ok {
			identity = orig
			s.Log.Info("stream: session resumed", "remote", sess.remote, "session", identity)
		}
	} else {
		token = newResumeToken()
	}
	s.recordResume(token, identity)
	// A hello naming a channel registers this session as its publisher.
	// With a resume token, a parked channel is reclaimed — spectators ride
	// through — otherwise the name must be free.
	var ch *Channel
	if hello.Channel != "" {
		resumed := false
		if hello.ResumeToken != "" {
			if got, err := s.relay.Reclaim(hello.Channel, hello.ResumeToken); err == nil {
				ch = got
				resumed = true
				if o := ch.Origin(); o != "" {
					identity = o
				}
			}
		}
		if ch == nil {
			var err error
			ch, err = s.relay.Create(hello.Channel, s.Accept)
			if err != nil {
				unregister()
				s.ctrs.rejected.Inc()
				s.Log.Warn("stream: rejecting session: channel unavailable",
					"session", sess.remote, "channel", hello.Channel, "err", err)
				s.rejectConn(conn, Reject{
					Code:   RejectChannelTaken,
					Reason: fmt.Sprintf("channel %q already has a publisher", hello.Channel),
				})
				return
			}
		}
		ch.setResume(token, identity)
		if resumed {
			s.Log.Info("stream: parked channel reclaimed",
				"session", sess.remote, "channel", hello.Channel, "spectators", ch.Subscribers())
		} else {
			s.Log.Info("stream: publishing channel", "session", sess.remote, "channel", hello.Channel)
		}
	}
	if s.Sched != nil {
		sess.client = s.Sched.NewClient(parallel.ClientConfig{Name: sess.remote})
	}
	s.ctrs.accepted.Inc()
	s.ctrs.active.Add(1)
	var sessErr error
	defer func() {
		if ch != nil {
			// An unclean publisher drop parks the channel for the grace
			// window — registry entry, cached keyframe and subscribers all
			// retained, awaiting a resume-token reclaim. A clean end drains
			// gracefully: subscribers get their queued tail, then a Bye.
			if sessErr != nil && ch.park() {
				s.Log.Warn("stream: channel parked after publisher dropped",
					"channel", ch.Name(), "session", sess.remote, "err", sessErr)
			} else {
				ch.close(false)
			}
		}
		conn.Close()
		unregister()
		s.ctrs.active.Add(-1)
	}()
	sessErr = s.serveSession(conn, sess, hello, tHello, ch, token, identity)
}

// admit computes the aggregate windowed p99 across live session recorders
// and compares its slack against the admission policy. Returns the p99,
// the sample count, the deadline accounted against, and the verdict.
func (s *MultiServer) admit() (p99 time.Duration, samples int, deadline time.Duration, ok bool) {
	pol := s.Admission.withDefaults()
	s.mu.Lock()
	recs := make([]*frametrace.Recorder, 0, len(s.flights))
	for _, f := range s.flights {
		// Spectator windows don't gate player admission: a stalled
		// spectator is the eviction ladder's problem, not evidence the
		// encode fleet is out of headroom.
		if f.live && !f.spectator {
			recs = append(recs, f.rec)
		}
	}
	s.mu.Unlock()
	var lats []time.Duration
	deadline = s.Deadline
	if deadline <= 0 {
		deadline = frametrace.DefaultDeadline
	}
	for _, rec := range recs {
		lats = rec.WindowLatencies(lats)
		if d := rec.Deadline(); d > 0 {
			deadline = d
		}
	}
	if len(lats) < pol.MinSamples {
		return 0, len(lats), deadline, true // cold server: no evidence to reject on
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 = lats[(len(lats)*99+99)/100-1]
	return p99, len(lats), deadline, deadline-p99 >= pol.MinSlack
}

// maxShedLevel reports the highest shed-ladder level among live sessions —
// the stream_shed_level_max gauge.
func (s *MultiServer) maxShedLevel() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max int64
	for _, sess := range s.sessions {
		if sess.shed == nil {
			continue
		}
		if v := sess.shed.Level(); int64(v) > max {
			max = int64(v)
		}
	}
	return max
}

// serveSession runs the accepted publisher's frame loop and returns its
// terminal error (nil on a clean end — source EOF or client Bye). identity
// is the stable session name for flight records and per-session metrics:
// normally the remote address, but a resumed session keeps the identity of
// the connection it resumed, so records correlate across reconnects.
func (s *MultiServer) serveSession(conn net.Conn, sess *session, hello Hello, tHello time.Time, ch *Channel, token, identity string) error {
	remote := sess.remote
	channel := ""
	if ch != nil {
		channel = ch.Name()
	}
	// Label this session's goroutine (and the read goroutine serveHello
	// spawns from it) so CPU profiles attribute frame production and sends
	// to the session identity. The goroutine is per-connection and exits
	// right after, so there is nothing to restore.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("session", identity, "stage", "publish", "channel", channel)))
	rec := s.beginFlight(identity, channel, false)
	sess.rec = rec
	var src FrameSource
	var source FrameSource = deferredSource{get: func() FrameSource { return src }}
	if s.Shed != nil && rec != nil {
		shed := &shedSource{
			inner:       source,
			target:      func() Shedder { t, _ := src.(Shedder); return t },
			client:      sess.client,
			rec:         rec,
			pol:         s.Shed.withDefaults(),
			remote:      remote,
			log:         s.Log,
			diag:        s.Diag,
			escalations: s.Metrics.Counter("stream_shed_escalations_total"),
			recoveries:  s.Metrics.Counter("stream_shed_recoveries_total"),
		}
		sess.shed = shed
		source = shed
	}
	sink := &statsSink{metrics: s.Metrics, remote: identity, rec: rec, log: s.Log}
	opt := ServerOptions{
		Accept:         s.Accept,
		MaxFrames:      s.MaxFrames,
		Metrics:        s.Metrics,
		Flight:         rec,
		Remote:         remote,
		ResumeToken:    token,
		IdleTimeout:    s.idleTimeout(),
		ControlTimeout: s.ControlTimeout,
		Log:            s.Log,
		OnReap: func(idle time.Duration) {
			s.Diag.Trigger("session_reaped", "session", identity, "channel", channel, "idle", idle)
		},
		Source:  source,
		OnStats: sink.handle,
		OnInput: func(in InputPacket) {
			if s.OnInput != nil {
				s.OnInput(remote, in)
			}
		},
		Validate: func(h Hello) error {
			var err error
			src, err = s.NewSource(h)
			if err != nil {
				return err
			}
			if sa, ok := src.(SchedAware); ok && sess.client != nil {
				sa.SetSched(sess.client)
			}
			return nil
		},
	}
	if ch != nil {
		opt.Tap = ch.Publish
	}
	err := serveHello(conn, hello, tHello, opt) // per-session errors end that session only
	sink.close()
	if sess.client != nil {
		st := sess.client.Stats()
		if st.Jobs > 0 {
			s.Log.Info("stream: session scheduler stats", "session", remote,
				"jobs", st.Jobs, "chunks", st.Chunks, "stolen", st.Stolen,
				"queue_wait", st.StolenWait.Round(time.Microsecond))
		}
	}
	s.endFlight(identity)
	return err
}

// subscriberWriteTimeout bounds every socket write to a spectator. The
// queue's eviction ladder handles sustained slowness; the deadline only
// guards against a peer that stops reading entirely mid-frame.
const subscriberWriteTimeout = 10 * time.Second

// serveSubscriber runs a spectator session whose Subscribe has been read:
// attach to the channel (cached Accept + keyframe make the first frame
// decodable immediately), then relay the publisher's encoded frames until
// the subscriber leaves, falls too far behind, or the channel closes.
func (s *MultiServer) serveSubscriber(conn net.Conn, sub Subscribe, tSub time.Time) {
	remote := conn.RemoteAddr().String()
	var ch *Channel
	if s.relay != nil {
		ch = s.relay.Lookup(sub.Channel)
	}
	if ch == nil {
		s.ctrs.subsRejected.Inc()
		s.Log.Warn("stream: rejecting spectator: unknown channel", "session", remote, "channel", sub.Channel)
		s.rejectConn(conn, Reject{Code: RejectUnknownChannel, Reason: fmt.Sprintf("no publisher on channel %q", sub.Channel)})
		return
	}
	subr, err := ch.Subscribe(remote)
	if err != nil {
		s.ctrs.subsRejected.Inc()
		s.Log.Warn("stream: rejecting spectator", "session", remote, "channel", sub.Channel, "err", err)
		rej := Reject{Code: RejectUnknownChannel, Reason: err.Error()}
		if errors.Is(err, errSubscriberCap) {
			rej.Code = RejectCapacity
			rej.RetryAfterMs = uint32(busyRetryAfter.Milliseconds())
		}
		s.rejectConn(conn, rej)
		return
	}
	defer ch.detach(subr)
	acc := ch.Accept()
	acc.Version = ProtocolVersion
	acc.RecvUnixMicro = tSub.UnixMicro()
	acc.SendUnixMicro = time.Now().UnixMicro()
	conn.SetWriteDeadline(time.Now().Add(subscriberWriteTimeout))
	if err := WriteAccept(conn, acc); err != nil {
		conn.Close()
		return
	}
	conn.SetWriteDeadline(time.Time{})
	s.ctrs.subsAccepted.Inc()
	s.Log.Info("stream: spectator attached", "session", remote, "channel", sub.Channel)
	// Label the writer goroutine (and the read goroutine spawned below) so
	// relay fan-out CPU shows up against the spectator's identity.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("session", remote, "stage", "subscribe", "channel", sub.Channel)))
	var client *parallel.Client
	if s.Sched != nil {
		// Spectators only cost relay writes today, but registering them at
		// Background priority keeps any future per-subscriber work (e.g.
		// transcode rungs) strictly yield-only.
		client = s.Sched.NewClient(parallel.ClientConfig{Name: remote, Priority: parallel.Background})
	}
	_ = client
	rec := s.beginFlight(remote, sub.Channel, true)
	sink := &statsSink{metrics: s.Metrics, remote: remote, rec: rec, log: s.Log}
	defer func() {
		sink.close()
		s.endFlight(remote)
		conn.Close()
	}()

	// Read loop: spectators send no input that matters, but their Stats
	// backchannel, heartbeats and Bye do. Reading also detects disconnects
	// promptly, and the idle deadline reaps a blackholed spectator — the
	// eviction ladder handles slow readers, the reaper handles gone ones. sendMu serializes pong replies against the frame
	// writer (a message is two socket Writes that must not interleave).
	var clientBye atomic.Bool
	var sendMu sync.Mutex
	idle := s.idleTimeout()
	liveness := idle > 0
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for {
			if liveness {
				conn.SetReadDeadline(time.Now().Add(idle))
			}
			msg, err := ReadMsg(conn)
			if err != nil {
				if liveness && errors.Is(err, os.ErrDeadlineExceeded) {
					s.Metrics.Counter("stream_sessions_reaped_total").Inc()
					s.Log.Warn("stream: reaping spectator: no traffic (not even a heartbeat)",
						"session", remote, "channel", sub.Channel, "idle", idle)
					s.Diag.Trigger("session_reaped", "session", remote, "channel", sub.Channel, "idle", idle)
					conn.Close()
				}
				return
			}
			switch msg.Type {
			case MsgStats:
				sink.handle(*msg.Stats)
			case MsgPing:
				s.Metrics.Counter("stream_pings_total").Inc()
				ping := *msg.Ping
				sendMu.Lock()
				werr := controlWrite(conn, s.Metrics, s.Log, s.ControlTimeout, remote, "pong", func() error {
					return WritePong(conn, PongPacket{Seq: ping.Seq, EchoUnixMicro: ping.SendUnixMicro})
				})
				sendMu.Unlock()
				if werr != nil {
					return
				}
			case MsgBye:
				clientBye.Store(true)
				return
			}
		}
	}()

	framesSent := s.Metrics.Counter("stream_subscriber_frames_sent_total")
	bytesSent := s.Metrics.Counter("stream_subscriber_bytes_sent_total")
	sendHist := s.Metrics.Histogram("stream_subscriber_send_seconds", telemetry.LatencyBuckets())
	queueHist := s.Metrics.Histogram("stream_subscriber_queue_seconds", telemetry.LatencyBuckets())
	var latScratch [2]frametrace.StageLatency
	var sendErr error
	for rf := range subr.Frames() {
		subr.Consumed()
		if subr.Abandoned() || clientBye.Load() {
			break
		}
		pkt := rf.pkt
		pkt.SendUnixMicro = time.Now().UnixMicro()
		// Adopt the publisher's flight ID so gssr trace -merge correlates a
		// spectator's copy of frame N with the publisher's encode of it.
		fid := rec.BeginFrameAt(pkt.FlightID, int(pkt.Index))
		qAge := time.Since(rf.at)
		rec.Span(fid, "queue", "queue", rf.at, qAge)
		queueHist.ObserveDuration(qAge)
		t0 := time.Now()
		sendMu.Lock()
		conn.SetWriteDeadline(t0.Add(subscriberWriteTimeout))
		sendErr = WriteFrame(conn, pkt)
		sendMu.Unlock()
		d := time.Since(t0)
		if sendErr != nil {
			break
		}
		rec.Span(fid, "send", "send", t0, d)
		latScratch[0] = frametrace.StageLatency{Name: "queue", D: qAge}
		latScratch[1] = frametrace.StageLatency{Name: "send", D: d}
		rec.ObserveDeadline(fid, latScratch[:])
		sendHist.ObserveDuration(d)
		framesSent.Inc()
		bytesSent.Add(int64(len(pkt.Payload)))
	}
	if sendErr == nil && !clientBye.Load() {
		// Clean goodbye — including to an evicted reader, whose socket may
		// still accept one small control message even while frames back up.
		sendMu.Lock()
		controlWrite(conn, s.Metrics, s.Log, s.ControlTimeout, remote, "bye", func() error {
			return WriteBye(conn)
		})
		sendMu.Unlock()
	}
	if subr.Evicted() {
		s.Log.Warn("stream: spectator evicted (stalled past drop-to-keyframe)",
			"session", remote, "channel", sub.Channel)
	}
	conn.Close()
	<-readDone
}

// statsSink folds one session's backchannel Stats reports (DESIGN.md §13)
// into the server's telemetry and flight recorder: per-session gauges
// expose the client-observed e2e/decode/SR percentiles on /metrics, the
// cumulative drop/miss counts feed aggregate counters by delta, and the
// session's flight recorder pins the report to the frame in flight so a
// server-side dump shows what the client was experiencing. handle is
// called from the session's read loop; close is called at session
// teardown, possibly from a different goroutine (the read goroutine can
// outlive the session loop briefly), hence the mutex.
type statsSink struct {
	metrics *telemetry.Registry
	remote  string
	rec     *frametrace.Recorder
	log     *logx.Logger

	mu                      sync.Mutex
	closed                  bool
	seen                    bool
	lastDropped, lastMisses uint32
}

// perSessionGauges are the statsSink gauge-name prefixes, each suffixed
// with the sanitised remote address. close unregisters all of them —
// leaving them behind grew /metrics without bound under session churn
// (every reconnecting client has a fresh ephemeral port, hence a fresh
// suffix).
var perSessionGauges = []string{
	"stream_client_age_p50_us_",
	"stream_client_age_p99_us_",
	"stream_client_decode_p99_us_",
	"stream_client_sr_p99_us_",
}

// close unregisters the session's per-remote gauges and drops any late
// stats report still in flight on the read goroutine.
func (k *statsSink) close() {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return
	}
	k.closed = true
	suffix := metricLabel(k.remote)
	for _, name := range perSessionGauges {
		k.metrics.Unregister(name + suffix)
	}
}

func (k *statsSink) handle(st StatsPacket) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return
	}
	m := k.metrics
	m.Counter("stream_client_stats_total").Inc()
	suffix := metricLabel(k.remote)
	m.Gauge("stream_client_age_p50_us_" + suffix).Set(st.AgeP50.Microseconds())
	m.Gauge("stream_client_age_p99_us_" + suffix).Set(st.AgeP99.Microseconds())
	m.Gauge("stream_client_decode_p99_us_" + suffix).Set(st.DecodeP99.Microseconds())
	m.Gauge("stream_client_sr_p99_us_" + suffix).Set(st.SRP99.Microseconds())
	// Dropped/Misses are cumulative on the wire; counters get the deltas
	// (guarded against a client restart resetting its counters).
	if st.Dropped >= k.lastDropped {
		m.Counter("stream_client_dropped_total").Add(int64(st.Dropped - k.lastDropped))
	}
	k.lastDropped = st.Dropped
	if st.Misses >= k.lastMisses {
		m.Counter("stream_client_deadline_misses_total").Add(int64(st.Misses - k.lastMisses))
	}
	k.lastMisses = st.Misses
	k.rec.SetClientStats(k.rec.LastID(), st.AgeP99, st.Dropped, st.Misses)
	if !k.seen {
		k.seen = true
		k.log.Info("stream: backchannel up", "session", k.remote,
			"age_p50", st.AgeP50.Round(time.Microsecond), "age_p99", st.AgeP99.Round(time.Microsecond),
			"decode_p99", st.DecodeP99.Round(time.Microsecond), "sr_p99", st.SRP99.Round(time.Microsecond),
			"frames", st.WindowFrames)
	}
}

// metricLabel sanitises a remote address into a metric-name suffix
// ([a-zA-Z0-9_] only) — the registry has flat names, not labels.
func metricLabel(remote string) string {
	b := []byte(remote)
	for i, c := range b {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			b[i] = '_'
		}
	}
	return string(b)
}

// shedSource wraps a session's frame source with the shed-ladder
// controller: before each frame it reads the recorder's miss streak and
// escalates (or, after sustained recovery, descends) the shed level,
// applying it to the source (Shedder) and the scheduler client (priority
// demotion at ShedDemoted). Runs on the session's send goroutine, so all
// state except the exported level is single-goroutine.
type shedSource struct {
	inner  FrameSource
	target func() Shedder // resolved lazily: the source exists only after Hello
	client *parallel.Client
	rec    *frametrace.Recorder
	pol    ShedPolicy
	remote string
	log    *logx.Logger
	diag   *diag.Diag

	level atomic.Int32
	arm   int64 // next escalation requires a streak >= arm
	clean int64 // consecutive on-budget frames at the current level

	escalations, recoveries *telemetry.Counter
}

// shedLogLimit rate-limits the per-session shed-transition log lines: a
// session oscillating at the capacity edge climbs and descends repeatedly,
// and each transition is one line — the limiter keeps a flapping ladder
// from flooding the log while the suppressed count still records how often
// it flapped.
var shedLogLimit = logx.NewLimiter(1, 4)

// Level returns the session's current shed-ladder level.
func (ss *shedSource) Level() int { return int(ss.level.Load()) }

func (ss *shedSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	ss.evaluate(i)
	return ss.inner.NextFrame(i)
}

func (ss *shedSource) evaluate(i int) {
	streak := ss.rec.MissStreak()
	level := int(ss.level.Load())
	if streak == 0 {
		ss.arm = int64(ss.pol.EscalateStreak)
		if level > 0 {
			ss.clean++
			if ss.clean >= int64(ss.pol.RecoverFrames) {
				ss.setLevel(i, level-1)
				ss.clean = 0
				ss.recoveries.Inc()
			}
		}
		return
	}
	ss.clean = 0
	if ss.arm == 0 {
		ss.arm = int64(ss.pol.EscalateStreak)
	}
	if streak >= ss.arm && level < ss.pol.MaxLevel {
		ss.setLevel(i, level+1)
		// Re-arm relative to the current streak, so a streak that keeps
		// growing climbs one rung per EscalateStreak further misses
		// instead of one rung per frame.
		ss.arm = streak + int64(ss.pol.EscalateStreak)
		ss.escalations.Inc()
		// A climb means sustained misses despite the previous level's
		// relief — worth a capture bundle (the diag cooldown dedupes the
		// rungs of one incident into a single bundle).
		ss.diag.Trigger("shed_escalation",
			"session", ss.remote, "level", level+1, "frame", i, "streak", streak)
	}
}

func (ss *shedSource) setLevel(i, level int) {
	old := int(ss.level.Swap(int32(level)))
	if t := ss.target(); t != nil {
		t.SetShedLevel(level)
	}
	if ss.client != nil {
		if level >= ShedDemoted {
			ss.client.SetPriority(parallel.Background)
		} else {
			ss.client.SetPriority(parallel.Normal)
		}
	}
	if ok, suppressed := shedLogLimit.Allow("shed:" + ss.remote); ok {
		kv := []any{"session", ss.remote, "from", old, "to", level, "frame", i,
			"flight", ss.rec.LastID(), "streak", ss.rec.MissStreak()}
		if suppressed > 0 {
			kv = append(kv, "suppressed", suppressed)
		}
		ss.log.Warn("stream: shed level change", kv...)
	}
}

// beginFlight attaches a flight recorder to a new session (nil when
// FlightFrames is off), retiring the oldest finished recorders beyond the
// retention cap. Per-session recorders keep frame IDs independent across
// concurrent sessions; they share the server's Metrics registry, so miss
// counters aggregate, and the streak gauges go through the server's
// StreakSet (max across live sessions) instead of racing last-writer-wins.
func (s *MultiServer) beginFlight(remote, channel string, spectator bool) *frametrace.Recorder {
	if s.FlightFrames <= 0 {
		return nil
	}
	s.mu.Lock()
	streaks := s.streaks
	s.mu.Unlock()
	cfg := frametrace.Config{Frames: s.FlightFrames, Deadline: s.Deadline, Metrics: s.Metrics, Streaks: streaks}
	var rec *frametrace.Recorder
	if s.Diag != nil && !spectator {
		// The SLO watchdog: a sustained deadline-miss streak on a player
		// session freezes a capture bundle with the triggering frames still
		// in the flight window. The threshold tracks the shed ladder's
		// escalation streak so a bundle lands exactly when shedding starts;
		// Diag's cooldown turns a 100-frame streak (one OnMiss per frame)
		// into one bundle, not a capture storm. rec is captured by the
		// closure before New assigns it; OnMiss only fires from
		// ObserveDeadline calls on the constructed recorder.
		threshold := int64(ShedPolicy{}.withDefaults().EscalateStreak)
		if s.Shed != nil {
			threshold = int64(s.Shed.withDefaults().EscalateStreak)
		}
		cfg.OnMiss = func(id uint64, slack time.Duration) {
			// MissStreak already counts the miss that fired this callback.
			if streak := rec.MissStreak(); streak >= threshold {
				s.Diag.Trigger("miss_streak",
					"session", remote, "channel", channel, "streak", streak, "flight", id, "slack", slack)
			}
		}
	}
	rec = frametrace.New(cfg)
	retain := s.FlightRetain
	if retain <= 0 {
		retain = retiredFlights
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flights = append(s.flights, &sessionFlight{remote: remote, channel: channel, spectator: spectator, rec: rec, live: true})
	retired := 0
	for _, f := range s.flights {
		if !f.live {
			retired++
		}
	}
	for i := 0; retired > retain && i < len(s.flights); {
		if !s.flights[i].live {
			s.flights = append(s.flights[:i], s.flights[i+1:]...)
			retired--
			continue
		}
		i++
	}
	return rec
}

// endFlight marks the most recent live recorder of remote as finished; its
// window stays dumpable until retention evicts it. The recorder leaves the
// streak aggregation so a dead session's final streak stops dominating the
// gauge.
func (s *MultiServer) endFlight(remote string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.flights) - 1; i >= 0; i-- {
		if f := s.flights[i]; f.live && f.remote == remote {
			f.live = false
			s.streaks.Remove(f.rec)
			return
		}
	}
}

// WriteFlight merges every retained session's flight window into one
// Chrome trace-event JSON payload, one Perfetto process per session —
// the /debug/flight implementation (telemetry.FlightDumper).
func (s *MultiServer) WriteFlight(w io.Writer) error {
	s.mu.Lock()
	dumps := make([]frametrace.NamedDump, 0, len(s.flights))
	for _, f := range s.flights {
		name := f.remote
		if f.channel != "" {
			if f.spectator {
				name += " spectating " + f.channel
			} else {
				name += " publishing " + f.channel
			}
		}
		if !f.live {
			name += " (closed)"
		}
		dumps = append(dumps, frametrace.NamedDump{Name: name, Dump: f.rec.Snapshot()})
	}
	s.mu.Unlock()
	return frametrace.WriteChromeTraces(w, dumps)
}

// SessionLatencies returns the modelled frame latencies currently in every
// retained session recorder's ring, keyed "remote#k" (k disambiguates
// successive sessions from one address) — what the saturation benchmark
// reads to compute per-session tail latency.
func (s *MultiServer) SessionLatencies() map[string][]time.Duration {
	s.mu.Lock()
	flights := append([]*sessionFlight(nil), s.flights...)
	s.mu.Unlock()
	out := make(map[string][]time.Duration, len(flights))
	seen := map[string]int{}
	for _, f := range flights {
		key := fmt.Sprintf("%s#%d", f.remote, seen[f.remote])
		seen[f.remote]++
		out[key] = f.rec.WindowLatencies(nil)
	}
	return out
}

// deferredSource resolves its FrameSource lazily: the real source is only
// known after the client's Hello has been validated.
type deferredSource struct {
	get func() FrameSource
}

func (d deferredSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	src := d.get()
	if src == nil {
		return nil, false, frame.Rect{}, fmt.Errorf("stream: session has no source")
	}
	return src.NextFrame(i)
}

// Shutdown stops accepting and closes every live session, then waits for
// the session goroutines to drain (they finish promptly — their
// connections are closed) or for ctx to expire, whichever comes first.
// Relay channels close first: subscriber queues end, so every spectator
// writer sends its Bye before its connection is torn down.
func (s *MultiServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	relay := s.relay
	if s.listener != nil {
		s.listener.Close()
	}
	s.mu.Unlock()
	if relay != nil {
		relay.Shutdown()
	}
	s.mu.Lock()
	for conn := range s.sessions {
		conn.Close()
	}
	for conn := range s.pending {
		conn.Close()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.serveWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SessionCount returns the number of live publisher sessions.
func (s *MultiServer) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// SubscriberCount returns the number of live spectator sessions across all
// publish channels.
func (s *MultiServer) SubscriberCount() int {
	s.mu.Lock()
	relay := s.relay
	s.mu.Unlock()
	if relay == nil {
		return 0
	}
	relay.mu.Lock()
	chans := make([]*Channel, 0, len(relay.channels))
	for _, ch := range relay.channels {
		chans = append(chans, ch)
	}
	relay.mu.Unlock()
	n := 0
	for _, ch := range chans {
		n += ch.Subscribers()
	}
	return n
}
