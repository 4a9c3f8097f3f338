// Package upscale implements the traditional (non-DNN) frame upscalers the
// paper uses and compares against: nearest-neighbour, bilinear (the client
// GPU's GL_LINEAR path, §IV-C), bicubic (Catmull-Rom) and Lanczos-3 (the
// quality-preserving kernels the §VI decoder prototype proposes for RoI
// regions). It also provides Merge, which composites a DNN-upscaled RoI back
// into a bilinearly upscaled frame — step ❾ of Fig. 6.
//
// All upscalers are separable polyphase resamplers over the planar RGB
// images of internal/frame and are exact on the class of images their kernel
// reproduces (constants for all, linear ramps for bilinear and up), which the
// property tests exploit.
//
// A filter bank with at most two taps per coordinate whose weights are all
// multiples of 2⁻¹⁶ — bilinear at 2× and 4× upscale, nearest and area at 2×
// and 4× upscale and at 2× minification — runs in exact 16.16 fixed point;
// every other bank (Lanczos-3, bicubic, other ratios, wider dyadic banks)
// runs in float64. For such a bank the float64 sums are themselves exact, so
// the output bytes are identical either way: the choice follows from the
// geometry alone and is invisible to callers.
package upscale

import (
	"fmt"
	"math"
	"sync"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
)

// Kind selects an interpolation kernel.
type Kind int

const (
	// Nearest is nearest-neighbour sampling.
	Nearest Kind = iota
	// Bilinear is the 2-tap triangle kernel (GL_LINEAR).
	Bilinear
	// Bicubic is the Catmull-Rom 4-tap cubic.
	Bicubic
	// Lanczos3 is the 6-tap windowed-sinc kernel.
	Lanczos3
	// Area is the box (pixel-area) kernel — the correct anti-aliasing
	// filter for integer downscaling (how a GPU resolves supersamples).
	Area
)

func (k Kind) String() string {
	switch k {
	case Nearest:
		return "nearest"
	case Bilinear:
		return "bilinear"
	case Bicubic:
		return "bicubic"
	case Lanczos3:
		return "lanczos3"
	case Area:
		return "area"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// support returns the kernel radius in source pixels.
func (k Kind) support() float64 {
	switch k {
	case Nearest:
		return 0.5
	case Bilinear:
		return 1
	case Bicubic:
		return 2
	case Lanczos3:
		return 3
	case Area:
		return 0.5
	default:
		return 1
	}
}

// weight evaluates the kernel at distance x.
func (k Kind) weight(x float64) float64 {
	x = math.Abs(x)
	switch k {
	case Nearest:
		if x <= 0.5 {
			return 1
		}
		return 0
	case Bilinear:
		if x < 1 {
			return 1 - x
		}
		return 0
	case Bicubic:
		// Catmull-Rom (a = −0.5).
		const a = -0.5
		switch {
		case x < 1:
			return (a+2)*x*x*x - (a+3)*x*x + 1
		case x < 2:
			return a*x*x*x - 5*a*x*x + 8*a*x - 4*a
		default:
			return 0
		}
	case Lanczos3:
		if x < 1e-9 {
			return 1
		}
		if x >= 3 {
			return 0
		}
		px := math.Pi * x
		return 3 * math.Sin(px) * math.Sin(px/3) / (px * px)
	case Area:
		// Box kernel; combined with the minification stretch in
		// buildWeights this averages exactly the covered source pixels.
		if x <= 0.5 {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// Resize resamples src to dstW×dstH with kernel k. Upscaling and
// downscaling are both supported; when downscaling, the kernel is stretched
// by the scale factor (standard anti-aliased polyphase resampling).
func Resize(src *frame.Image, dstW, dstH int, k Kind) (*frame.Image, error) {
	if dstW <= 0 || dstH <= 0 {
		return nil, fmt.Errorf("upscale: invalid target size %dx%d", dstW, dstH)
	}
	dst := frame.NewImagePacked(dstW, dstH)
	if err := ResizeInto(dst, src, k, nil); err != nil {
		return nil, err
	}
	return dst, nil
}

// ResizeInto resamples src into dst (whose W×H select the target size) with
// kernel k. Every pixel of dst is overwritten, so dst may be a dirty pooled
// image; dst must not alias src. The optional pool supplies the intermediate
// buffer of the separable pass (nil allocates it).
func ResizeInto(dst, src *frame.Image, k Kind, pool *bufpool.Pool) error {
	return ResizeIntoOn(nil, dst, src, k, pool)
}

// ResizeIntoOn is ResizeInto with the row-parallel passes attributed to the
// scheduler client c (nil means the default client).
func ResizeIntoOn(c *parallel.Client, dst, src *frame.Image, k Kind, pool *bufpool.Pool) error {
	if src.W <= 0 || src.H <= 0 {
		return fmt.Errorf("upscale: empty source image %dx%d", src.W, src.H)
	}
	if dst.W <= 0 || dst.H <= 0 {
		return fmt.Errorf("upscale: invalid target size %dx%d", dst.W, dst.H)
	}
	if dst.W == src.W && dst.H == src.H {
		dst.CopyFrom(src)
		return nil
	}
	// Horizontal pass into an intermediate, then vertical pass.
	hw := cachedWeights(src.W, dst.W, k)
	vw := cachedWeights(src.H, dst.H, k)
	mid := pool.Image(dst.W, src.H)
	resampleRows(c, src, mid, hw)
	resampleCols(c, mid, dst, vw)
	pool.PutImage(mid)
	return nil
}

// MustResize is Resize for arguments the caller has validated.
func MustResize(src *frame.Image, dstW, dstH int, k Kind) *frame.Image {
	out, err := Resize(src, dstW, dstH, k)
	if err != nil {
		panic(err)
	}
	return out
}

// tapSet holds the contributing source taps for one destination coordinate.
type tapSet struct {
	first   int
	weights []float64
}

// pair is a fixed-point tapSet of at most two taps, padded so the two-tap
// loops need no length test: a single tap repeats its index with weight 0.
type pair struct {
	i0, i1 int32
	w0, w1 int32
}

// bank is one polyphase filter bank: a tapSet per destination coordinate,
// plus its fixed-point form pairs when no coordinate has more than two taps,
// every weight·2¹⁶ is an integer and 255·Σ|w·2¹⁶| < 2³¹ at every coordinate.
// Then each float64 product and partial sum is a multiple of 2⁻¹⁶ below 2¹⁵
// in magnitude — exact — so an int32 accumulator reproduces the float64 path
// and clampByte bit for bit.
type bank struct {
	taps  []tapSet
	pairs []pair
}

// fixShift is the fractional precision of the fixed-point banks.
const fixShift = 16

// newBank wraps taps, adding the two-tap fixed-point form when it is exact.
func newBank(taps []tapSet) *bank {
	b := &bank{taps: taps}
	for _, t := range taps {
		if len(t.weights) > 2 {
			return b
		}
		var abs int64
		for _, w := range t.weights {
			s := math.Ldexp(w, fixShift)
			if s != math.Trunc(s) || math.Abs(s) >= 1<<31 {
				return b
			}
			abs += int64(math.Abs(s))
		}
		if 255*abs >= 1<<31 {
			return b
		}
	}
	b.pairs = make([]pair, len(taps))
	for d, t := range taps {
		q := pair{i0: int32(t.first), i1: int32(t.first), w0: int32(math.Ldexp(t.weights[0], fixShift))}
		if len(t.weights) == 2 {
			q.i1, q.w1 = q.i0+1, int32(math.Ldexp(t.weights[1], fixShift))
		}
		b.pairs[d] = q
	}
	return b
}

// weightsKey identifies one polyphase filter bank. The pipeline resamples
// the same few geometries every frame, so banks are computed once and
// shared; banks are immutable after construction, making the cached values
// safe to read concurrently.
type weightsKey struct {
	srcN, dstN int
	k          Kind
}

var (
	weightsMu    sync.Mutex
	weightsCache = map[weightsKey]*bank{}
)

// cachedWeights returns the (shared, read-only) filter bank for the mapping,
// building and memoising it on first use.
func cachedWeights(srcN, dstN int, k Kind) *bank {
	key := weightsKey{srcN: srcN, dstN: dstN, k: k}
	weightsMu.Lock()
	b, ok := weightsCache[key]
	if !ok {
		// Built under the lock: duplicate work on a cold key is rarer than
		// the contention is cheap, and it keeps a single canonical bank.
		b = newBank(buildWeights(srcN, dstN, k))
		weightsCache[key] = b
	}
	weightsMu.Unlock()
	return b
}

// buildWeights computes the polyphase filter bank mapping srcN samples onto
// dstN samples with kernel k, using pixel-center alignment.
func buildWeights(srcN, dstN int, k Kind) []tapSet {
	scale := float64(srcN) / float64(dstN)
	filterScale := 1.0
	if scale > 1 {
		filterScale = scale // stretch kernel when minifying
	}
	support := k.support() * filterScale
	out := make([]tapSet, dstN)
	// Every coordinate's weights share one backing array (a coordinate has
	// at most ⌊2·support⌋+1 taps), so a cache miss costs two allocations
	// rather than one per destination sample.
	backing := make([]float64, dstN*(int(2*support)+1))
	for d := 0; d < dstN; d++ {
		center := (float64(d)+0.5)*scale - 0.5
		first := int(math.Ceil(center - support))
		last := int(math.Floor(center + support))
		if first < 0 {
			first = 0
		}
		if last > srcN-1 {
			last = srcN - 1
		}
		if last < first {
			// Degenerate tiny support: fall back to the nearest sample.
			first = clampInt(int(center+0.5), 0, srcN-1)
			last = first
		}
		n := last - first + 1
		ws := backing[:n:n]
		backing = backing[n:]
		sum := 0.0
		for i := first; i <= last; i++ {
			w := k.weight((float64(i) - center) / filterScale)
			ws[i-first] = w
			sum += w
		}
		if sum != 0 {
			inv := 1 / sum
			for i := range ws {
				ws[i] *= inv
			}
		} else {
			// All taps fell on kernel zeros; use the nearest sample.
			for i := range ws {
				ws[i] = 0
			}
			n := clampInt(int(center+0.5), first, last)
			ws[n-first] = 1
		}
		out[d] = tapSet{first: first, weights: ws}
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func resampleRows(c *parallel.Client, src, dst *frame.Image, bk *bank) {
	if bk.pairs != nil {
		resampleRowsFixed(c, src, dst, bk.pairs)
		return
	}
	taps := bk.taps
	// Destination rows are disjoint, so row bands parallelise safely.
	c.For(src.H, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			srow := y * src.Stride
			drow := y * dst.Stride
			for x := 0; x < dst.W; x++ {
				t := &taps[x]
				var r, g, b float64
				for i, w := range t.weights {
					p := srow + t.first + i
					r += w * float64(src.R[p])
					g += w * float64(src.G[p])
					b += w * float64(src.B[p])
				}
				d := drow + x
				dst.R[d] = clampByte(r)
				dst.G[d] = clampByte(g)
				dst.B[d] = clampByte(b)
			}
		}
	})
}

// resampleRowsFixed is resampleRows for a bank with a fixed-point form.
func resampleRowsFixed(c *parallel.Client, src, dst *frame.Image, pairs []pair) {
	c.For(src.H, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			so, do := y*src.Stride, y*dst.Stride
			gather2(dst.R[do:do+dst.W], src.R[so:so+src.W], pairs)
			gather2(dst.G[do:do+dst.W], src.G[so:so+src.W], pairs)
			gather2(dst.B[do:do+dst.W], src.B[so:so+src.W], pairs)
		}
	})
}

// colScratch holds the per-worker row accumulators of resampleCols, reused
// across chunks, calls and frames (the buffers grow to the largest row seen).
var colScratch = parallel.NewScratch(func() *[]float64 { return new([]float64) })

func resampleCols(c *parallel.Client, src, dst *frame.Image, bk *bank) {
	if bk.pairs != nil {
		resampleColsFixed(c, src, dst, bk.pairs)
		return
	}
	taps := bk.taps
	parallel.ForWithOn(c, dst.H, colScratch, func(y0, y1 int, sp *[]float64) {
		// Tap-outer accumulation: each contributing source row is streamed
		// sequentially into a row accumulator, which is cache-friendlier than
		// striding down columns. Per destination pixel the additions still
		// happen in tap order, so results are bit-identical to the
		// pixel-inner form.
		acc := *sp
		if need := 3 * dst.W; cap(acc) < need {
			acc = make([]float64, need)
			*sp = acc
		} else {
			acc = acc[:need]
		}
		ra := acc[0:dst.W:dst.W]
		ga := acc[dst.W : 2*dst.W : 2*dst.W]
		ba := acc[2*dst.W : 3*dst.W : 3*dst.W]
		for y := y0; y < y1; y++ {
			t := &taps[y]
			clear(ra)
			clear(ga)
			clear(ba)
			for i, w := range t.weights {
				srow := (t.first + i) * src.Stride
				for x := 0; x < dst.W; x++ {
					p := srow + x
					ra[x] += w * float64(src.R[p])
					ga[x] += w * float64(src.G[p])
					ba[x] += w * float64(src.B[p])
				}
			}
			drow := y * dst.Stride
			for x := 0; x < dst.W; x++ {
				d := drow + x
				dst.R[d] = clampByte(ra[x])
				dst.G[d] = clampByte(ga[x])
				dst.B[d] = clampByte(ba[x])
			}
		}
	})
}

// resampleColsFixed is resampleCols for a bank with a fixed-point form: each
// destination row blends its two source rows directly.
func resampleColsFixed(c *parallel.Client, src, dst *frame.Image, pairs []pair) {
	w := dst.W
	c.For(dst.H, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			q := pairs[y]
			do, o0, o1 := y*dst.Stride, int(q.i0)*src.Stride, int(q.i1)*src.Stride
			blend2(dst.R[do:do+w], src.R[o0:o0+w], src.R[o1:o1+w], q.w0, q.w1)
			blend2(dst.G[do:do+w], src.G[o0:o0+w], src.G[o1:o1+w], q.w0, q.w1)
			blend2(dst.B[do:do+w], src.B[o0:o0+w], src.B[o1:o1+w], q.w0, q.w1)
		}
	})
}

func clampByte(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// gather2 resamples the source row s into d through a two-tap bank, one
// plane at a time so the loop stays in registers.
func gather2(d, s []uint8, pairs []pair) {
	pairs = pairs[:len(d)]
	for x := range d {
		q := &pairs[x]
		d[x] = fixByte(q.w0*int32(s[q.i0]) + q.w1*int32(s[q.i1]))
	}
}

// blend2 writes the two-tap blend w0·s0 + w1·s1 of two source rows into d.
func blend2(d, s0, s1 []uint8, w0, w1 int32) {
	s0, s1 = s0[:len(d)], s1[:len(d)]
	for x := range d {
		d[x] = fixByte(w0*int32(s0[x]) + w1*int32(s1[x]))
	}
}

// fixByte is clampByte for a 16.16 fixed-point accumulator: ≤0 → 0,
// ≥255·2¹⁶ → 255, else round half up — the same byte clampByte gives for
// the exactly equal float64 sum.
func fixByte(acc int32) uint8 {
	return uint8((min(max(acc, 0), 255<<fixShift) + 1<<(fixShift-1)) >> fixShift)
}

// Merge composites the upscaled RoI into the upscaled full frame at the RoI
// coordinates scaled by the upscale factor — step ❾ of the paper's Fig. 6.
// base is the bilinearly upscaled full frame (modified in place), roiHR the
// DNN-upscaled RoI patch, roiLR the RoI rectangle in low-resolution
// coordinates, and scale the upscale factor.
func Merge(base *frame.Image, roiHR *frame.Image, roiLR frame.Rect, scale int) error {
	if scale <= 0 {
		return fmt.Errorf("upscale: invalid scale %d", scale)
	}
	hr := roiLR.Scale(scale)
	if hr.W != roiHR.W || hr.H != roiHR.H {
		return fmt.Errorf("upscale: RoI patch is %dx%d but scaled rect is %dx%d", roiHR.W, roiHR.H, hr.W, hr.H)
	}
	if !hr.In(base.W, base.H) {
		return fmt.Errorf("upscale: scaled RoI %v outside %dx%d frame", hr, base.W, base.H)
	}
	dst, err := base.SubImage(hr.X, hr.Y, hr.W, hr.H)
	if err != nil {
		return err
	}
	dst.CopyFrom(roiHR)
	return nil
}

// ResizePlane resamples a single float64 plane (e.g. a residual plane or a
// motion-vector component field) — the operation NEMO applies to
// non-reference frame data (§II-A of the paper, our §nemo baseline).
func ResizePlane(src []float64, srcW, srcH, dstW, dstH int, k Kind) ([]float64, error) {
	if dstW <= 0 || dstH <= 0 {
		return nil, fmt.Errorf("upscale: invalid plane resample %dx%d -> %dx%d", srcW, srcH, dstW, dstH)
	}
	dst := make([]float64, dstW*dstH)
	if err := ResizePlaneInto(dst, src, srcW, srcH, dstW, dstH, k, nil); err != nil {
		return nil, err
	}
	return dst, nil
}

// ResizePlaneInto is ResizePlane writing into dst, which must have length
// dstW*dstH and is fully overwritten (a dirty pooled buffer is fine; dst
// must not alias src). The optional pool supplies the intermediate buffer.
func ResizePlaneInto(dst, src []float64, srcW, srcH, dstW, dstH int, k Kind, pool *bufpool.Pool) error {
	return ResizePlaneIntoOn(nil, dst, src, srcW, srcH, dstW, dstH, k, pool)
}

// ResizePlaneIntoOn is ResizePlaneInto attributed to the scheduler client c
// (nil means the default client).
func ResizePlaneIntoOn(c *parallel.Client, dst, src []float64, srcW, srcH, dstW, dstH int, k Kind, pool *bufpool.Pool) error {
	if len(src) != srcW*srcH {
		return fmt.Errorf("upscale: plane length %d != %dx%d", len(src), srcW, srcH)
	}
	if srcW <= 0 || srcH <= 0 || dstW <= 0 || dstH <= 0 {
		return fmt.Errorf("upscale: invalid plane resample %dx%d -> %dx%d", srcW, srcH, dstW, dstH)
	}
	if len(dst) != dstW*dstH {
		return fmt.Errorf("upscale: destination length %d != %dx%d", len(dst), dstW, dstH)
	}
	hw := cachedWeights(srcW, dstW, k)
	vw := cachedWeights(srcH, dstH, k)
	mid := pool.Float64s(dstW * srcH)
	c.For(srcH, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < dstW; x++ {
				t := &hw.taps[x]
				var v float64
				for i, w := range t.weights {
					v += w * src[y*srcW+t.first+i]
				}
				mid[y*dstW+x] = v
			}
		}
	})
	c.For(dstH, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			t := &vw.taps[y]
			for x := 0; x < dstW; x++ {
				var v float64
				for i, w := range t.weights {
					v += w * mid[(t.first+i)*dstW+x]
				}
				dst[y*dstW+x] = v
			}
		}
	})
	pool.PutFloat64s(mid)
	return nil
}
