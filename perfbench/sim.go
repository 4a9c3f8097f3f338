package main

import (
	"fmt"
	"reflect"
	"time"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/telemetry"
)

// sim-gamestream: the offline simulator behind `gssr sim` and `gssr run` —
// render/BVH, the staged pipeline engine, bufpool and the quality metrics
// — at its default SimDiv 4 (320×180 pixels billed at 720p) with GOP 12.
// The timed loop runs fixed batches, each a fresh session over the same
// frames, so every batch must reproduce the first one's modelled fields.
const (
	simGOP   = 12
	simBatch = 2 * simGOP // frames per batch
	// simWarm frames run once in set-up to fill the renderer's, the
	// upscaler's and the SR engine's lazy state.
	simWarm = simGOP
)

// frameTap records when each frame leaves the engine's server stage; the
// gaps between consecutive frames are the simulator's frame times.
type frameTap struct{ at []time.Time }

func (t *frameTap) PublishFrame(int, []byte, bool, frame.Rect) { t.at = append(t.at, time.Now()) }

// simConfig is the session configuration for a seed.
func simConfig(seed int64) (pipeline.Config, error) {
	g, err := games.ByID("G3")
	if err != nil {
		return pipeline.Config{}, err
	}
	return pipeline.Config{Game: g, SimDiv: 4, GOPSize: simGOP, StartFrame: startFrame(seed)}, nil
}

// modelled is the part of a frame's result the simulator computes from its
// models and the coded stream: identical on every run of the same frames.
type modelled struct {
	Type       string
	Stages     pipeline.Stages
	RoI        frame.Rect
	Bytes      int
	CodedBytes int
	Dropped    bool
}

func modelledOf(r *pipeline.Result) []modelled {
	out := make([]modelled, len(r.Frames))
	for i, f := range r.Frames {
		out[i] = modelled{f.Type.String(), f.Stages, f.RoI, f.Bytes, f.CodedBytes, f.Dropped}
	}
	return out
}

// simPhase is one timed loop of batches.
type simPhase struct {
	frames     int
	batches    int
	wall       time.Duration
	perFrame   []float64 // ms: each batch's wall time / its frames
	frameTimes []float64 // ms
	psnr       []float64
	spend      goDelta
	modelled   []modelled // every batch's modelled fields
}

// runSimPhase runs batches until budget is spent, checking each batch's
// modelled fields against want, or against the first batch's when want is
// nil. reg, when non-nil, instruments every batch (the traced run).
func runSimPhase(cfg pipeline.Config, budget time.Duration, want []modelled, reg *telemetry.Registry, tr *Tracer, rep *report) (*simPhase, error) {
	cfg.Metrics = reg
	ph := &simPhase{modelled: want}
	before := sampleGo()
	t0 := time.Now()
	for time.Since(t0) < budget || ph.frames < minSamples(90)+1 {
		if time.Since(t0) > maxLoop {
			rep.problem("only %d frames in %v", ph.frames, maxLoop)
			break
		}
		tap := &frameTap{}
		cfg.Tap = tap
		tb := time.Now()
		gs, err := pipeline.NewGameStream(cfg)
		if err != nil {
			return nil, err
		}
		res, err := gs.Run(simBatch)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", ph.batches, err)
		}
		te := time.Now()
		tr.Record("pipeline.run", "sim", int64(ph.batches), -1, tb, te)
		ph.perFrame = append(ph.perFrame, ms(te.Sub(tb))/simBatch)
		ph.batches++
		ph.frames += simBatch
		if len(res.Frames) != simBatch || len(tap.at) != simBatch {
			rep.problem("batch %d: %d results and %d encoded frames, want %d", ph.batches, len(res.Frames), len(tap.at), simBatch)
		}
		if got := modelledOf(res); ph.modelled == nil {
			ph.modelled = got
		} else if !reflect.DeepEqual(got, ph.modelled) {
			rep.problem("batch %d: modelled fields differ from the first batch's", ph.batches)
		}
		for i := 1; i < len(tap.at); i++ {
			ph.frameTimes = append(ph.frameTimes, ms(tap.at[i].Sub(tap.at[i-1])))
		}
		p, err := res.MeanPSNR()
		if err != nil {
			return nil, err
		}
		ph.psnr = append(ph.psnr, p)
	}
	ph.wall = time.Since(t0)
	ph.spend = deltaGo(before, sampleGo(), ph.frames)
	return ph, nil
}

func runSim(opt options) (*report, error) {
	rep := newReport()
	cfg, err := simConfig(opt.seed)
	if err != nil {
		return nil, err
	}
	reps := setupReps
	if opt.trace {
		reps = 1
	}
	// Set-up builds a session and runs it over one GOP, filling the lazy
	// state a first run pays for.
	_, setupS, err := medianSetup(reps, func() (*pipeline.GameStream, error) {
		gs, err := pipeline.NewGameStream(cfg)
		if err != nil {
			return nil, err
		}
		_, err = gs.Run(simWarm)
		return gs, err
	}, func(*pipeline.GameStream) {})
	if err != nil {
		return nil, err
	}
	base, err := runSimPhase(cfg, opt.seconds, nil, nil, nil, rep)
	if err != nil {
		return nil, err
	}
	fps := float64(base.frames) / base.wall.Seconds()
	if !opt.trace {
		rss, err := rssPeakMB()
		if err != nil {
			return nil, err
		}
		rep.attempted = base.frames
		rep.setE2E("setup_s", "s", setupS)
		rep.setE2E("fps", "1/s", fps)
		// A simulator user waits for whole runs: the latency is a batch's
		// wall time per frame. The gaps between frames are too bimodal
		// (the engine's stages alternate) for their median to repeat.
		rep.setE2E("latency_p50_ms", "ms", median(base.perFrame))
		rep.setE2E("cpu_ms_per_frame", "ms", base.spend.cpuMsPerFrame)
		rep.setE2E("psnr_db", "dB", mean(base.psnr))
		rep.setE2E("rss_peak_mb", "MiB", rss)
		return rep, nil
	}

	// The traced run: the same batches with the engine's own stage
	// histograms on (Config.Metrics) and a span per batch.
	tr := newTracer(time.Now())
	reg := telemetry.NewRegistry()
	traced, err := runSimPhase(cfg, opt.seconds, base.modelled, reg, tr, rep)
	if err != nil {
		return nil, err
	}
	rep.attempted = base.frames + traced.frames
	rep.spans = tr.Spans()
	zeroLayers(rep)
	if err := setTail(rep, traced.frameTimes, 90); err != nil {
		return nil, err
	}
	snap := reg.Snapshot()
	n := float64(traced.frames)
	for _, s := range []struct{ metric, hist string }{
		{"pipeline.server_ms", "pipeline_server_stage_seconds"},
		{"pipeline.client_ms", "pipeline_client_stage_seconds"},
		{"pipeline.measure_ms", "pipeline_measure_stage_seconds"},
	} {
		h, ok := snap.Histogram(s.hist)
		if !ok {
			return nil, fmt.Errorf("engine histogram %s missing", s.hist)
		}
		q, err := h.Quantile(50)
		if err != nil {
			return nil, err
		}
		rep.setLayer(s.metric, "ms", q*1e3)
	}
	rep.setLayer("pipeline.server_wait_ms", "ms", float64(snap.Counter("pipeline_server_queue_wait_ns_total"))/1e6/n)
	rep.setLayer("pipeline.client_wait_ms", "ms", float64(snap.Counter("pipeline_client_queue_wait_ns_total"))/1e6/n)
	hits, misses := snap.Counter("pipeline_bufpool_hits_total"), snap.Counter("pipeline_bufpool_misses_total")
	if hits+misses > 0 {
		rep.setLayer("bufpool.hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	}
	if h, ok := snap.Histogram("pipeline_roi_area_px"); ok {
		rep.setLayer("sr.roi_px", "px", h.Mean())
	}
	rep.setLayer("codec.bytes_per_frame", "B", float64(snap.Counter("pipeline_coded_bytes_total"))/n)
	setGoLayers(rep, traced.spend)
	tracedFPS := float64(traced.frames) / traced.wall.Seconds()
	rep.setLayer("trace.overhead_pct", "%", (fps/tracedFPS-1)*100)
	return rep, nil
}
