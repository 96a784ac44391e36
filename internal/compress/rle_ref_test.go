package compress

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Tests of the reference run-length coder (reference_test.go) on its own,
// so a fault in the oracle shows here rather than as a fused-vs-reference
// mismatch.

func TestRoundTripSimple(t *testing.T) {
	in := []uint16{0, 0, 0, 5, 7, 0, 0, 1, 0}
	enc, err := rleEncode(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rleDecode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], in[i])
		}
	}
}

func TestEmptyStream(t *testing.T) {
	enc, err := rleEncode(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rleDecode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("expected empty, got %v", out)
	}
}

func TestAllZeros(t *testing.T) {
	in := make([]uint16, 10000)
	enc, err := rleEncode(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 10000 zeros should compress to a header plus a handful of bytes.
	if len(enc) > 12 {
		t.Fatalf("all-zero stream encoded to %d bytes", len(enc))
	}
	out, err := rleDecode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("length %d", len(out))
	}
	for _, v := range out {
		if v != 0 {
			t.Fatal("non-zero after decode")
		}
	}
}

func TestAllNonZero(t *testing.T) {
	in := make([]uint16, 100)
	for i := range in {
		in[i] = uint16(1 + i%15)
	}
	enc, err := rleEncode(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rleDecode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestLevelTooWideRejected(t *testing.T) {
	if _, err := rleEncode([]uint16{16}, 4); err == nil {
		t.Fatal("level 16 must not fit in 4 bits")
	}
}

func TestBadBits(t *testing.T) {
	if _, err := rleEncode([]uint16{1}, 0); err == nil {
		t.Fatal("bits=0 must be rejected")
	}
	if _, err := rleEncode([]uint16{1}, 17); err == nil {
		t.Fatal("bits=17 must be rejected")
	}
}

func TestDecodeTruncated(t *testing.T) {
	in := []uint16{0, 0, 3, 3, 3, 0, 9}
	enc, err := rleEncode(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := rleDecode(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := rleDecode([]byte{1, 2}); err == nil {
		t.Fatal("short garbage must fail")
	}
	// Valid header claiming 4 symbols, then an unknown token.
	bad := []byte{4, 0, 0, 0, 4, 0xFF, 1}
	if _, err := rleDecode(bad); err == nil {
		t.Fatal("unknown token must fail")
	}
}

// Property: rleDecode(rleEncode(x)) == x for random sparse streams at any
// width.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := 1 + rng.Intn(16)
		maxLevel := uint16(1<<bits - 1)
		n := rng.Intn(500)
		in := make([]uint16, n)
		for i := range in {
			if rng.Float32() < 0.7 { // sparse like real clipped-ReLU output
				in[i] = 0
			} else {
				in[i] = uint16(rng.Intn(int(maxLevel))) + 1
				if in[i] > maxLevel {
					in[i] = maxLevel
				}
			}
		}
		enc, err := rleEncode(in, bits)
		if err != nil {
			return false
		}
		out, err := rleDecode(enc)
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: rleCompressedSize matches the actual encoded length.
func TestCompressedSizeMatchesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := 1 + rng.Intn(8)
		n := rng.Intn(300)
		in := make([]uint16, n)
		for i := range in {
			if rng.Float32() < 0.6 {
				in[i] = uint16(rng.Intn(1<<bits-1)) + 1
			}
		}
		enc, err := rleEncode(in, bits)
		if err != nil {
			return false
		}
		return rleCompressedSize(in, bits) == len(enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseStreamCompresses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := make([]uint16, 10000)
	for i := range in {
		if rng.Float32() < 0.05 {
			in[i] = uint16(rng.Intn(15)) + 1
		}
	}
	enc, err := rleEncode(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 95% sparse 4-bit data should be far below the 5000-byte dense packing.
	if len(enc) >= 5000 {
		t.Fatalf("sparse stream encoded to %d bytes, expected < 5000", len(enc))
	}
}

// FuzzRefDecode: arbitrary bytes must never panic the reference decoder,
// and any accepted stream must re-encode losslessly.
func FuzzRefDecode(f *testing.F) {
	good, _ := rleEncode([]uint16{0, 0, 5, 7, 0, 1}, 4)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 4})
	f.Add([]byte{255, 255, 255, 255, 4, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		levels, err := rleDecode(data)
		if err != nil {
			return
		}
		// Round-trip what was accepted.
		bits := int(data[4])
		re, err := rleEncode(levels, bits)
		if err != nil {
			t.Fatalf("accepted stream failed to re-encode: %v", err)
		}
		back, err := rleDecode(re)
		if err != nil {
			t.Fatalf("re-encoded stream failed to decode: %v", err)
		}
		if len(back) != len(levels) {
			t.Fatal("length changed across round trip")
		}
		for i := range levels {
			if back[i] != levels[i] {
				t.Fatal("value changed across round trip")
			}
		}
	})
}

// FuzzRefEncode: any level stream within the bit width must round-trip
// through the reference coder, at the size rleCompressedSize predicts.
func FuzzRefEncode(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 0, 15}, 4)
	f.Add([]byte{}, 1)
	f.Fuzz(func(t *testing.T, raw []byte, bits int) {
		if bits < 1 || bits > 16 {
			return
		}
		mask := uint16(1<<bits - 1)
		levels := make([]uint16, len(raw))
		for i, b := range raw {
			levels[i] = uint16(b) & mask
		}
		enc, err := rleEncode(levels, bits)
		if err != nil {
			t.Fatalf("in-range levels rejected: %v", err)
		}
		back, err := rleDecode(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(back) != len(levels) {
			t.Fatal("length mismatch")
		}
		for i := range levels {
			if back[i] != levels[i] {
				t.Fatal("mismatch")
			}
		}
		if rleCompressedSize(levels, bits) != len(enc) {
			t.Fatal("rleCompressedSize disagrees with rleEncode")
		}
	})
}
