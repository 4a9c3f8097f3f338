package codec

import (
	"testing"

	"gamestreamsr/internal/frame"
)

// Native Go fuzz targets (run in regression mode as part of `go test`;
// `go test -fuzz=FuzzDecode ./internal/codec` explores further). The
// invariant under fuzz is total robustness: whatever the bytes, Decode
// returns an error or a well-formed frame — never a panic.

func FuzzDecode(f *testing.F) {
	// Seed with real bitstreams of both frame types. The image is kept at
	// 8×8: a coverage-guided run minimizes every interesting input, and a
	// larger seed stalls it there at 0 execs/s for tens of seconds.
	img := frame.NewImage(8, 8)
	for i := range img.R {
		img.R[i] = uint8(i)
		img.G[i] = uint8(2 * i)
		img.B[i] = uint8(3 * i)
	}
	enc, err := NewEncoder(Config{Width: 8, Height: 8, GOPSize: 2})
	if err != nil {
		f.Fatal(err)
	}
	intra, _, err := enc.Encode(img)
	if err != nil {
		f.Fatal(err)
	}
	inter, _, err := enc.Encode(img)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(intra)
	f.Add(inter)
	f.Add([]byte{magic, version, byte(Intra)})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder()
		// Seed a reference so inter frames have something to predict from.
		if _, err := dec.Decode(intra); err != nil {
			t.Fatal(err)
		}
		df, err := dec.Decode(data)
		if err == nil {
			if df == nil || df.Image == nil {
				t.Fatal("successful decode returned nil frame")
			}
			if df.Image.W <= 0 || df.Image.H <= 0 {
				t.Fatal("successful decode returned empty geometry")
			}
		}
	})
}

func FuzzSignedRLE(f *testing.F) {
	f.Add([]byte{0x00, 0x05}, 10)
	f.Add([]byte{0x02, 0x01, 0x03}, 3)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<16 {
			return
		}
		vals, rest, err := decodeSignedRLE(data, n)
		if err != nil {
			return
		}
		if len(vals) != n {
			t.Fatalf("decoded %d values, want %d", len(vals), n)
		}
		// Round-trip: re-encoding the decoded values and decoding again
		// must reproduce them (canonical-form property).
		re := appendSignedRLE(nil, vals)
		back, rest2, err := decodeSignedRLE(re, n)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-decode failed: %v", err)
		}
		for i := range vals {
			if vals[i] != back[i] {
				t.Fatalf("value %d changed across round trip", i)
			}
		}
		_ = rest
	})
}
