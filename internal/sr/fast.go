package sr

import (
	"fmt"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/upscale"
)

// Engine is anything that can super-resolve an image by an integer factor.
// Both the real EDSR network and the fast kernel implement it; the client
// pipeline is written against this interface (paper Fig. 6 step ❼).
type Engine interface {
	// Upscale returns a new image of size (W·scale)×(H·scale).
	Upscale(im *frame.Image, scale int) (*frame.Image, error)
	// Name identifies the engine in experiment output.
	Name() string
}

// IntoEngine is the destination-passing extension of Engine: UpscaleInto
// writes the (W·scale)×(H·scale) result into dst — which must already have
// that geometry and may hold dirty pooled pixels — drawing any internal
// scratch from pool (nil allocates). Callers type-assert and fall back to
// Upscale for engines that don't implement it.
type IntoEngine interface {
	Engine
	UpscaleInto(dst, im *frame.Image, scale int, pool *bufpool.Pool) error
}

// UpscaleTo super-resolves im into dst through e's destination-passing path
// when it has one, falling back to Upscale plus a copy for plain Engines.
// dst must already have the (W·scale)×(H·scale) geometry.
func UpscaleTo(e Engine, dst, im *frame.Image, scale int, pool *bufpool.Pool) error {
	if ie, ok := e.(IntoEngine); ok {
		return ie.UpscaleInto(dst, im, scale, pool)
	}
	up, err := e.Upscale(im, scale)
	if err != nil {
		return err
	}
	if dst.W != up.W || dst.H != up.H {
		return fmt.Errorf("sr: destination %dx%d != upscaled %dx%d", dst.W, dst.H, up.W, up.H)
	}
	dst.CopyFrom(up)
	return nil
}

// FastConfig parameterises the fast SR kernel.
type FastConfig struct {
	// Kernel is the interpolation backbone (default Lanczos3).
	Kernel upscale.Kind
	// Sharpen is the detail-restoration gain α in out = up + α·(up − blur)
	// (default 2.0; the overshoot clamp makes high gains safe — see the
	// calibration sweep in TestSharpenSweepDefaultNearOptimal). Negative
	// disables restoration.
	Sharpen float64
	// Sched attributes the kernel's parallel work — the resample passes and
	// the row-parallel sharpen — to a scheduler client (nil means the
	// default client).
	Sched *parallel.Client
}

// Fast computes the same function class the analytically-weighted EDSR
// network realises — polyphase interpolation plus high-frequency detail
// restoration — as a direct kernel, so full-resolution pipeline runs don't
// pay the cost of executing every convolution of the topology. The device
// model bills its latency at calibrated NPU rates regardless.
type Fast struct {
	cfg FastConfig
}

// NewFast builds a fast SR engine.
func NewFast(cfg FastConfig) *Fast {
	if cfg.Kernel == upscale.Nearest {
		cfg.Kernel = upscale.Lanczos3
	}
	if cfg.Sharpen == 0 {
		cfg.Sharpen = 2.0
	}
	if cfg.Sharpen < 0 {
		cfg.Sharpen = 0
	}
	return &Fast{cfg: cfg}
}

// Name implements Engine.
func (f *Fast) Name() string { return fmt.Sprintf("fast-sr(%v,α=%.2f)", f.cfg.Kernel, f.cfg.Sharpen) }

// Upscale implements Engine.
func (f *Fast) Upscale(im *frame.Image, scale int) (*frame.Image, error) {
	if scale < 1 {
		return nil, fmt.Errorf("sr: invalid scale %d", scale)
	}
	dst := frame.NewImagePacked(im.W*scale, im.H*scale)
	if err := f.UpscaleInto(dst, im, scale, nil); err != nil {
		return nil, err
	}
	return dst, nil
}

// UpscaleInto implements IntoEngine.
func (f *Fast) UpscaleInto(dst, im *frame.Image, scale int, pool *bufpool.Pool) error {
	if scale < 1 {
		return fmt.Errorf("sr: invalid scale %d", scale)
	}
	if dst.W != im.W*scale || dst.H != im.H*scale {
		return fmt.Errorf("sr: destination %dx%d != %dx scale-%d source", dst.W, dst.H, im.W, scale)
	}
	if err := upscale.ResizeIntoOn(f.cfg.Sched, dst, im, f.cfg.Kernel, pool); err != nil {
		return err
	}
	if f.cfg.Sharpen == 0 || scale == 1 {
		return nil
	}
	sharpenInPlace(f.cfg.Sched, dst, f.cfg.Sharpen, pool)
	return nil
}

// sharpenInPlace applies unsharp masking with a 3×3 binomial blur and
// overshoot clamping to the local 3×3 extrema, which restores the
// mid-frequency energy lost by the decimation/interpolation chain without
// introducing ringing halos. Edge pixels replicate outward.
//
// The three source planes are copied first; then every row of every plane
// is one item of a single parallel grid attributed to c. A row builds the
// vertical column sums a+2b+c and column extrema of its three source rows
// in per-worker scratch, then combines them horizontally — the same integer
// blur and extrema as the 9-tap form, fed to the same float64 gain and
// clamp, so the output bytes do not depend on the worker count.
func sharpenInPlace(c *parallel.Client, im *frame.Image, alpha float64, pool *bufpool.Pool) {
	w, h := im.W, im.H
	n := w * h
	src := pool.Bytes(3 * n)
	for pl, p := range [3][]uint8{im.R, im.G, im.B} {
		s := src[pl*n : (pl+1)*n]
		for y := 0; y < h; y++ {
			copy(s[y*w:(y+1)*w], p[y*im.Stride:y*im.Stride+w])
		}
	}
	parallel.ForWithOn(c, 3*h, sharpenScratch, func(lo, hi int, sp *[]int32) {
		if cap(*sp) < 3*w {
			*sp = make([]int32, 3*w)
		}
		sc := (*sp)[:3*w]
		planes := [3][]uint8{im.R, im.G, im.B}
		for i := lo; i < hi; i++ {
			pl, y := i/h, i%h
			o := y * im.Stride
			sharpenRow(planes[pl][o:o+w], src[pl*n:(pl+1)*n], w, h, y, alpha, sc)
		}
	})
	pool.PutBytes(src)
}

// sharpenScratch holds one worker's column sums, minima and maxima for
// sharpenRow (3·W values, grown to the widest image seen).
var sharpenScratch = parallel.NewScratch(func() *[]int32 { return new([]int32) })

// sharpenRow writes row y of the sharpened plane into dst from the compact
// w×h source plane src, using sc (length 3·w) as scratch.
func sharpenRow(dst, src []uint8, w, h, y int, alpha float64, sc []int32) {
	up := src[max(y-1, 0)*w:][:w]
	mid := src[y*w:][:w]
	dn := src[min(y+1, h-1)*w:][:w]
	sum, cmin, cmax := sc[:w], sc[w:2*w], sc[2*w:3*w]
	for x := range sum {
		a, b, c := int32(up[x]), int32(mid[x]), int32(dn[x])
		sum[x] = a + 2*b + c
		cmin[x] = min(a, b, c)
		cmax[x] = max(a, b, c)
	}
	dst = dst[:w]
	for x := range dst {
		xl, xr := max(x-1, 0), min(x+1, w-1)
		// 3×3 binomial blur (1 2 1 / 2 4 2 / 1 2 1)/16 and local extrema.
		blur := sum[xl] + 2*sum[x] + sum[xr]
		lo := min(cmin[xl], cmin[x], cmin[xr])
		hi := max(cmax[xl], cmax[x], cmax[xr])
		c := mid[x]
		out := float64(c) + alpha*(float64(c)-float64(blur)/16)
		if out < float64(lo) {
			out = float64(lo)
		} else if out > float64(hi) {
			out = float64(hi)
		}
		dst[x] = uint8(clampF(out, 0, 255) + 0.5)
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BilinearEngine wraps plain bilinear interpolation in the Engine interface
// so pipelines and ablations can swap the RoI upscaler uniformly.
type BilinearEngine struct{}

// Name implements Engine.
func (BilinearEngine) Name() string { return "bilinear" }

// Upscale implements Engine.
func (BilinearEngine) Upscale(im *frame.Image, scale int) (*frame.Image, error) {
	if scale < 1 {
		return nil, fmt.Errorf("sr: invalid scale %d", scale)
	}
	return upscale.Resize(im, im.W*scale, im.H*scale, upscale.Bilinear)
}

// UpscaleInto implements IntoEngine.
func (BilinearEngine) UpscaleInto(dst, im *frame.Image, scale int, pool *bufpool.Pool) error {
	if scale < 1 {
		return fmt.Errorf("sr: invalid scale %d", scale)
	}
	if dst.W != im.W*scale || dst.H != im.H*scale {
		return fmt.Errorf("sr: destination %dx%d != %dx scale-%d source", dst.W, dst.H, im.W, scale)
	}
	return upscale.ResizeInto(dst, im, upscale.Bilinear, pool)
}
