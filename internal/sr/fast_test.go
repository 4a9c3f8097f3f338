package sr

import (
	"fmt"
	"testing"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
)

// sharpenPlaneRef is the direct 9-tap form of the unsharp mask — a clamped
// pixel accessor per tap, one plane at a time — kept as the oracle for the
// row-streamed sharpenInPlace.
func sharpenPlaneRef(p []uint8, w, h, stride int, alpha float64) {
	src := make([]uint8, len(p))
	copy(src, p)
	at := func(x, y int) int {
		if x < 0 {
			x = 0
		} else if x >= w {
			x = w - 1
		}
		if y < 0 {
			y = 0
		} else if y >= h {
			y = h - 1
		}
		return int(src[y*stride+x])
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := at(x, y)
			lo, hi := c, c
			blur := 0
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					v := at(x+dx, y+dy)
					wgt := (2 - absInt(dx)) * (2 - absInt(dy))
					blur += wgt * v
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
			}
			out := float64(c) + alpha*(float64(c)-float64(blur)/16)
			if out < float64(lo) {
				out = float64(lo)
			} else if out > float64(hi) {
				out = float64(hi)
			}
			p[y*stride+x] = uint8(clampF(out, 0, 255) + 0.5)
		}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// blockyImage mixes flat blocks (where the extrema clamp binds) with noise
// (where the gain and the 0/255 clamp bind).
func blockyImage(w, h int, seed int64) *frame.Image {
	im := randImage(w, h, seed)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if (x/5+y/3)%3 == 0 {
				v := uint8(40 * ((x/5 + y/3) % 7))
				im.Set(x, y, v, 255-v, v/2)
			}
		}
	}
	return im
}

// TestSharpenMatchesReference requires byte equality between the
// row-parallel sharpen and the 9-tap oracle across degenerate and paper
// sizes, a strided sub-image, the calibration's gains and several worker
// counts (the output must not depend on the chunk-to-worker mapping).
func TestSharpenMatchesReference(t *testing.T) {
	sizes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {33, 17}, {608, 608}}
	alphas := []float64{0.55, 2, 4.5}
	pool := bufpool.New()
	for _, workers := range []int{1, 2, 4} {
		s := parallel.NewScheduler(workers)
		c := s.NewClient(parallel.ClientConfig{Name: "sharpen-test"})
		for _, sz := range sizes {
			for _, alpha := range alphas {
				if sz[0] == 608 && alpha != 2 {
					continue // the paper-size case runs at the default gain only
				}
				name := fmt.Sprintf("w%d/%dx%d/a%.2f", workers, sz[0], sz[1], alpha)
				in := blockyImage(sz[0], sz[1], int64(sz[0]*31+sz[1]))
				want := in.Clone()
				for _, p := range [][]uint8{want.R, want.G, want.B} {
					sharpenPlaneRef(p, want.W, want.H, want.Stride, alpha)
				}
				got := in.Clone()
				sharpenInPlace(c, got, alpha, pool)
				if !got.Equal(want) {
					t.Errorf("%s: sharpen differs from the 9-tap reference", name)
				}
			}
		}
		// A strided view: only the sub-rectangle changes, and it matches
		// the reference run over the same view.
		for _, alpha := range alphas {
			parent := blockyImage(41, 29, 5)
			want := parent.Clone()
			wv := want.MustSubImage(3, 2, 30, 20)
			for _, p := range [][]uint8{wv.R, wv.G, wv.B} {
				sharpenPlaneRef(p, wv.W, wv.H, wv.Stride, alpha)
			}
			sharpenInPlace(c, parent.MustSubImage(3, 2, 30, 20), alpha, pool)
			if !parent.Equal(want) {
				t.Errorf("w%d/sub-image/a%.2f: sharpen differs from the reference", workers, alpha)
			}
		}
		s.Close()
	}
}
