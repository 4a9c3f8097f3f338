package main

import (
	"io"
	"testing"
	"time"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/sr"
	"gamestreamsr/internal/stream"
	"gamestreamsr/internal/telemetry"
	"gamestreamsr/internal/upscale"
)

// benchFrame builds one coded 320×180 frame with a 64×64 RoI — the demo
// stream's shape.
func benchFrame(b *testing.B) ([]byte, frame.Rect) {
	b.Helper()
	img := frame.NewImage(320, 180)
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			i := y*img.Stride + x
			img.R[i] = uint8(x * 3)
			img.G[i] = uint8(y * 5)
			img.B[i] = uint8((x + y) * 2)
		}
	}
	enc, err := codec.NewEncoder(codec.Config{Width: img.W, Height: img.H, GOPSize: 12, QStep: 6})
	if err != nil {
		b.Fatal(err)
	}
	payload, _, err := enc.Encode(img)
	if err != nil {
		b.Fatal(err)
	}
	return payload, frame.Rect{X: 128, Y: 72, W: 64, H: 64}
}

// benchClientFrame is the gssr-client per-frame loop: decode, bilinear
// base, RoI SR, merge — with or without the full observability path
// (flight recorder spans, e2e age, deadline accounting, histogram, and a
// Stats report every 60 frames). The delta is the recorder + backchannel
// overhead BENCH_e2e.json records.
func benchClientFrame(b *testing.B, instrumented bool) {
	payload, roi := benchFrame(b)
	dec := codec.NewDecoder()
	engine := sr.NewFast(sr.FastConfig{})
	up := baseUpscaler{pool: bufpool.New()}
	const scale = 2

	var rec *frametrace.Recorder // nil: every recorder call is a no-op
	var ageHist *telemetry.Histogram
	var wDecode, wSR, wAge []float64
	if instrumented {
		reg := telemetry.NewRegistry()
		rec = frametrace.New(frametrace.Config{Frames: frametrace.DefaultFrames, Metrics: reg})
		rec.SetProcess("client")
		rec.SetClockSync(250*time.Microsecond, 700*time.Microsecond)
		ageHist = reg.Histogram("client_frame_age_seconds", telemetry.LatencyBuckets())
	}
	var latScratch [4]frametrace.StageLatency
	sendUnix := time.Now().UnixMicro()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tRecv := time.Now()
		fid := rec.BeginFrameAt(uint64(i+1), i)
		rec.Span(fid, "recv", "recv", tRecv, 0)
		tDec := time.Now()
		df, err := dec.Decode(payload)
		dDec := time.Since(tDec)
		if err != nil {
			b.Fatal(err)
		}
		rec.Span(fid, "decode", "decode", tDec, dDec)
		tUp := time.Now()
		base, err := up.upscale(df.Image, scale)
		dUp := time.Since(tUp)
		if err != nil {
			b.Fatal(err)
		}
		rec.Span(fid, "upscale", "upscale", tUp, dUp)
		roiRect := roi.Clamp(df.Image.W, df.Image.H)
		tSR := time.Now()
		roiImg, err := df.Image.SubImage(roiRect.X, roiRect.Y, roiRect.W, roiRect.H)
		if err != nil {
			b.Fatal(err)
		}
		hr, err := engine.Upscale(roiImg.Compact(), scale)
		dSR := time.Since(tSR)
		if err != nil {
			b.Fatal(err)
		}
		rec.Span(fid, "sr", "sr", tSR, dSR)
		tMerge := time.Now()
		if err := upscale.Merge(base, hr, roiRect, scale); err != nil {
			b.Fatal(err)
		}
		dMerge := time.Since(tMerge)
		rec.Span(fid, "merge", "merge", tMerge, dMerge)
		tPresent := time.Now()
		rec.Span(fid, "present", "present", tPresent, 0)

		if instrumented {
			age := tPresent.Sub(time.UnixMicro(sendUnix))
			rec.SetAge(fid, age)
			ageHist.ObserveDuration(age)
			wAge = append(wAge, float64(age.Microseconds()))
			latScratch[0] = frametrace.StageLatency{Name: "decode", D: dDec}
			latScratch[1] = frametrace.StageLatency{Name: "upscale", D: dUp}
			latScratch[2] = frametrace.StageLatency{Name: "sr", D: dSR}
			latScratch[3] = frametrace.StageLatency{Name: "merge", D: dMerge}
			rec.ObserveDeadline(fid, latScratch[:])
			wDecode = append(wDecode, float64(dDec.Microseconds()))
			wSR = append(wSR, float64(dSR.Microseconds()))
			if (i+1)%60 == 0 {
				st := stream.StatsPacket{
					Seq: uint32(i / 60), WindowFrames: uint32(len(wDecode)),
					DecodeP50: pctDur(wDecode, 50), DecodeP99: pctDur(wDecode, 99),
					SRP50: pctDur(wSR, 50), SRP99: pctDur(wSR, 99),
					AgeP50: pctDur(wAge, 50), AgeP99: pctDur(wAge, 99),
				}
				wDecode, wSR, wAge = wDecode[:0], wSR[:0], wAge[:0]
				if err := stream.WriteStats(io.Discard, st); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkClientFrameBare(b *testing.B)         { benchClientFrame(b, false) }
func BenchmarkClientFrameInstrumented(b *testing.B) { benchClientFrame(b, true) }
