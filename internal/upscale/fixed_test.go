package upscale

import (
	"fmt"
	"testing"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
)

// resizeFloat is ResizeInto forced onto the float64 loops: each bank is
// built without its fixed-point form. It is the oracle for the fixed path.
func resizeFloat(dst, src *frame.Image, k Kind) {
	if dst.W == src.W && dst.H == src.H {
		dst.CopyFrom(src)
		return
	}
	mid := frame.NewImage(dst.W, src.H)
	resampleRows(nil, src, mid, &bank{taps: buildWeights(src.W, dst.W, k)})
	resampleCols(nil, mid, dst, &bank{taps: buildWeights(src.H, dst.H, k)})
}

// dirtyImage is a w×h image whose every byte is a marker, so a pixel the
// resampler fails to write shows up in the comparison.
func dirtyImage(w, h int) *frame.Image {
	im := frame.NewImage(w, h)
	im.Fill(0xA5, 0x5A, 0xC3)
	return im
}

// TestResizeFixedMatchesFloat requires byte equality between ResizeInto
// (which takes the fixed-point loops for two-tap dyadic banks) and the float64
// loops, for every kernel over dyadic, non-dyadic, degenerate and
// single-tap-edge geometries.
func TestResizeFixedMatchesFloat(t *testing.T) {
	geoms := []struct {
		name                   string
		srcW, srcH, dstW, dstH int
	}{
		{"up2", 13, 9, 26, 18},
		{"up4", 11, 7, 44, 28},
		{"up3", 9, 8, 27, 24},
		{"down2", 24, 16, 12, 8},
		{"down4", 32, 20, 8, 5},
		{"odd", 17, 11, 29, 7},
		{"1px-up", 1, 1, 2, 4},
		{"1px-down", 2, 3, 1, 1},
		{"1px-row", 1, 6, 4, 12},
		{"1px-col", 5, 1, 10, 4},
		{"edge-taps", 2, 2, 8, 8},
	}
	pool := bufpool.New()
	fixedCases := 0
	for _, k := range []Kind{Nearest, Bilinear, Bicubic, Lanczos3, Area} {
		for gi, g := range geoms {
			name := fmt.Sprintf("%v/%s", k, g.name)
			src := noiseImage(g.srcW, g.srcH, int64(gi+1))
			want := dirtyImage(g.dstW, g.dstH)
			resizeFloat(want, src, k)
			got := dirtyImage(g.dstW, g.dstH)
			if err := ResizeInto(got, src, k, pool); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s: fixed-point output differs from float64", name)
			}
			if cachedWeights(g.srcW, g.dstW, k).pairs != nil || cachedWeights(g.srcH, g.dstH, k).pairs != nil {
				fixedCases++
			}
		}
	}
	// The dyadic banks the client runs every frame must take the integer
	// path; Lanczos-3 (not dyadic) and area ÷4 (four taps) must not.
	for _, k := range []Kind{Bilinear, Nearest, Area} {
		for _, g := range [][4]int{{1280, 720, 2560, 1440}, {11, 7, 44, 28}} {
			if cachedWeights(g[0], g[2], k).pairs == nil || cachedWeights(g[1], g[3], k).pairs == nil {
				t.Errorf("%v %dx%d -> %dx%d: expected the fixed-point path", k, g[0], g[1], g[2], g[3])
			}
		}
	}
	if cachedWeights(300, 600, Lanczos3).pairs != nil {
		t.Error("Lanczos-3 2x bank claims to be exact in fixed point")
	}
	if cachedWeights(32, 8, Area).pairs != nil {
		t.Error("area 4x minification bank took the two-tap fixed-point path")
	}
	if fixedCases == 0 {
		t.Fatal("no case reached the fixed-point path")
	}
	t.Logf("%d cases ran in fixed point", fixedCases)
}

// TestResizeFixedSubImages runs both paths with a strided source view and a
// strided destination view: only the destination rectangle may change.
func TestResizeFixedSubImages(t *testing.T) {
	for _, k := range []Kind{Nearest, Bilinear, Bicubic, Lanczos3, Area} {
		for _, g := range [][4]int{{10, 6, 20, 12}, {10, 6, 40, 24}, {16, 12, 4, 3}, {10, 6, 13, 17}} {
			srcParent := noiseImage(g[0]+7, g[1]+5, 11)
			src := srcParent.MustSubImage(3, 2, g[0], g[1])
			wantParent := dirtyImage(g[2]+9, g[3]+4)
			resizeFloat(wantParent.MustSubImage(5, 1, g[2], g[3]), src, k)
			gotParent := dirtyImage(g[2]+9, g[3]+4)
			if err := ResizeInto(gotParent.MustSubImage(5, 1, g[2], g[3]), src, k, nil); err != nil {
				t.Fatal(err)
			}
			if !gotParent.Equal(wantParent) {
				t.Errorf("%v %dx%d -> %dx%d: strided views differ between the paths", k, g[0], g[1], g[2], g[3])
			}
		}
	}
}

// FuzzResizeFixedMatchesFloat checks the fixed/float oracle over small
// geometries, kernels and pixel bytes. mode picks the target: even values a
// dyadic ratio of the source (×2, ×4, ÷2, ÷4), odd values the free dw×dh.
func FuzzResizeFixedMatchesFloat(f *testing.F) {
	f.Add(uint8(5), uint8(3), uint8(0), uint8(0), uint8(0), uint8(Bilinear), []byte{0, 255, 7, 128, 64})
	f.Add(uint8(4), uint8(4), uint8(2), uint8(0), uint8(0), uint8(Bilinear), []byte{255, 0})
	f.Add(uint8(8), uint8(6), uint8(6), uint8(0), uint8(0), uint8(Area), []byte{1, 2, 3, 250})
	f.Add(uint8(7), uint8(2), uint8(1), uint8(11), uint8(5), uint8(Lanczos3), []byte{9, 200, 33})
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(Nearest), []byte{42})
	f.Fuzz(func(t *testing.T, sw, sh, mode, dw, dh, kind uint8, pix []byte) {
		srcW, srcH := int(sw%16)+1, int(sh%16)+1
		k := Kind(kind % 5)
		var dstW, dstH int
		switch {
		case mode%2 == 1:
			dstW, dstH = int(dw%48)+1, int(dh%48)+1
		case mode/2%4 == 0:
			dstW, dstH = 2*srcW, 2*srcH
		case mode/2%4 == 1:
			dstW, dstH = 4*srcW, 4*srcH
		case mode/2%4 == 2:
			dstW, dstH = max(srcW/2, 1), max(srcH/2, 1)
		default:
			dstW, dstH = max(srcW/4, 1), max(srcH/4, 1)
		}
		src := frame.NewImage(srcW, srcH)
		for i := range src.R {
			if len(pix) > 0 {
				src.R[i] = pix[i%len(pix)]
				src.G[i] = pix[(i+1)%len(pix)]
				src.B[i] = pix[(3*i+2)%len(pix)]
			} else {
				src.R[i], src.G[i], src.B[i] = uint8(i), uint8(7*i), uint8(31*i)
			}
		}
		want := dirtyImage(dstW, dstH)
		resizeFloat(want, src, k)
		got := dirtyImage(dstW, dstH)
		if err := ResizeInto(got, src, k, nil); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%v %dx%d -> %dx%d: fixed-point output differs from float64", k, srcW, srcH, dstW, dstH)
		}
		// Bilinear at 2× and 4× upscale is the client's hot case: it must
		// take the fixed-point path at every size.
		if k == Bilinear && mode%2 == 0 && mode/2%4 < 2 &&
			(cachedWeights(srcW, dstW, k).pairs == nil || cachedWeights(srcH, dstH, k).pairs == nil) {
			t.Fatalf("bilinear %dx%d -> %dx%d did not take the fixed-point path", srcW, srcH, dstW, dstH)
		}
	})
}
