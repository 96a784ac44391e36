package tensor

import (
	"testing"
)

func TestBucketFor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := bucketFor(n); got != want {
			t.Errorf("bucketFor(%d) = %d, want %d", n, got, want)
		}
		if n > 0 && 1<<bucketFor(n) < n {
			t.Errorf("bucket capacity 1<<%d < %d", bucketFor(n), n)
		}
	}
}

func TestGetPutBufRoundTrip(t *testing.T) {
	b := GetBuf(100)
	if len(b) != 100 {
		t.Fatalf("len = %d, want 100", len(b))
	}
	if cap(b) != 128 {
		t.Fatalf("cap = %d, want power-of-two 128", cap(b))
	}
	for i := range b {
		b[i] = float32(i)
	}
	PutBuf(b)
	// A recycled buffer must cover a smaller request from the same bucket.
	b2 := GetBuf(70)
	if len(b2) != 70 {
		t.Fatalf("len = %d, want 70", len(b2))
	}
	PutBuf(b2)
}

func TestPutBufRejectsForeignBuffers(t *testing.T) {
	// Non-power-of-two capacity (not from GetBuf) must be dropped, not
	// poison a bucket.
	PutBuf(make([]float32, 100))
	PutBuf(nil)
	b := GetBuf(100)
	if len(b) != 100 || cap(b)&(cap(b)-1) != 0 {
		t.Fatalf("pool returned foreign buffer: len %d cap %d", len(b), cap(b))
	}
}

func TestGetPutTensor(t *testing.T) {
	x := GetTensor(3, 4)
	if x.Len() != 12 || x.Shape[0] != 3 || x.Shape[1] != 4 {
		t.Fatalf("GetTensor shape %v len %d", x.Shape, x.Len())
	}
	x.Fill(1)
	PutTensor(x)
	PutTensor(nil) // must not panic
	// A recycled header takes the new shape whatever rank it had.
	y := GetTensor(2, 3, 4, 5)
	if y.Rank() != 4 || y.Len() != 120 || y.Shape[3] != 5 {
		t.Fatalf("GetTensor after a put: shape %v len %d", y.Shape, y.Len())
	}
	PutTensor(y)
}

// TestGetPutTensorAllocFree: a Get/Put pair recycles the header and its
// shape as well as the data, so at steady state it allocates nothing.
func TestGetPutTensorAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop puts; alloc counts are meaningless")
	}
	PutTensor(GetTensor(1, 8, 16, 16)) // prime the pools
	allocs := testing.AllocsPerRun(200, func() {
		PutTensor(GetTensor(1, 8, 16, 16))
	})
	// Tolerate sub-1 noise: a GC sweep may empty a sync.Pool mid-run.
	if allocs >= 0.5 {
		t.Fatalf("GetTensor/PutTensor allocates %v per cycle, want 0", allocs)
	}
}

func TestGetBufAllocFree(t *testing.T) {
	// Steady-state Get/Put cycles must not allocate: that is the whole
	// point of the pool on the inference hot path.
	GetBuf(1 << 12) // prime the bucket's first make
	allocs := testing.AllocsPerRun(200, func() {
		b := GetBuf(1 << 12)
		PutBuf(b)
	})
	// Tolerate sub-1 noise: a GC sweep may empty the sync.Pool mid-run.
	if allocs >= 0.5 {
		t.Fatalf("GetBuf/PutBuf allocates %v per cycle, want 0", allocs)
	}
}

func TestGetPutBytesRoundTrip(t *testing.T) {
	b := GetBytes(100)
	if len(b) != 100 {
		t.Fatalf("len = %d, want 100", len(b))
	}
	if cap(b) != 128 {
		t.Fatalf("cap = %d, want power-of-two 128", cap(b))
	}
	for i := range b {
		b[i] = byte(i)
	}
	PutBytes(b)
	b2 := GetBytes(70)
	if len(b2) != 70 {
		t.Fatalf("len = %d, want 70", len(b2))
	}
	PutBytes(b2)
}

func TestPutBytesRejectsForeignBuffers(t *testing.T) {
	PutBytes(make([]byte, 100))
	PutBytes(nil)
	b := GetBytes(100)
	if len(b) != 100 || cap(b)&(cap(b)-1) != 0 {
		t.Fatalf("pool returned foreign buffer: len %d cap %d", len(b), cap(b))
	}
}

func TestGetBytesAllocFree(t *testing.T) {
	GetBytes(1 << 12) // prime the bucket's first make
	allocs := testing.AllocsPerRun(200, func() {
		b := GetBytes(1 << 12)
		PutBytes(b)
	})
	// Tolerate sub-1 noise: a GC sweep may empty the sync.Pool mid-run.
	if allocs >= 0.5 {
		t.Fatalf("GetBytes/PutBytes allocates %v per cycle, want 0", allocs)
	}
}
