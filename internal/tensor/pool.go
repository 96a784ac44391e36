package tensor

import (
	"math/bits"
	"sync"
)

// Scratch-buffer arena. The compute kernels (bordered inputs, offset tables)
// need short-lived float32 slices on every forward call; allocating them
// fresh puts the garbage collector on the inference hot path. Buffers are
// recycled through size-bucketed sync.Pools instead: bucket b holds slices
// with capacity exactly 1<<b, so a Get never returns a buffer more than 2×
// the request and a Put always knows its bucket.
//
// The pools store *[]float32 rather than []float32 so that neither Get nor
// Put converts a slice header to an interface (which would heap-allocate
// and defeat the point). The pointer shells themselves are recycled through
// a second pool.

const maxBucket = 31

var (
	bufPools [maxBucket + 1]sync.Pool
	shells   = sync.Pool{New: func() any { return new([]float32) }}
)

// bucketFor returns the bucket index whose capacity (1<<b) is the smallest
// power of two >= n.
func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// GetBuf returns a float32 scratch slice of length n with unspecified
// contents. Pair it with PutBuf when done; losing a buffer is safe (the GC
// reclaims it) but wastes the recycling.
func GetBuf(n int) []float32 {
	if n < 0 {
		panic("tensor: GetBuf negative size")
	}
	b := bucketFor(n)
	if b > maxBucket {
		return make([]float32, n)
	}
	if v := bufPools[b].Get(); v != nil {
		p := v.(*[]float32)
		s := *p
		*p = nil
		shells.Put(p)
		return s[:n]
	}
	return make([]float32, n, 1<<b)
}

// PutBuf recycles a buffer obtained from GetBuf. Only exact power-of-two
// capacities are accepted (anything else came from somewhere other than
// GetBuf and is silently dropped). The caller must not use buf afterwards.
func PutBuf(buf []float32) {
	c := cap(buf)
	if c == 0 || c&(c-1) != 0 || bits.Len(uint(c))-1 > maxBucket {
		return
	}
	if poison {
		fillNaN(buf[:c])
	}
	p := shells.Get().(*[]float32)
	*p = buf[:0:c]
	bufPools[bits.Len(uint(c))-1].Put(p)
}

// Byte-buffer arena. The wire path (frame payloads, boundary-codec output)
// needs short-lived []byte scratch on every tile exchange; it recycles
// through the same size-bucketed scheme as the float32 pools.

var (
	bytePools  [maxBucket + 1]sync.Pool
	byteShells = sync.Pool{New: func() any { return new([]byte) }}
)

// GetBytes returns a byte scratch slice of length n with unspecified
// contents. Pair it with PutBytes when done; losing a buffer is safe (the
// GC reclaims it) but wastes the recycling.
func GetBytes(n int) []byte {
	if n < 0 {
		panic("tensor: GetBytes negative size")
	}
	b := bucketFor(n)
	if b > maxBucket {
		return make([]byte, n)
	}
	if v := bytePools[b].Get(); v != nil {
		p := v.(*[]byte)
		s := *p
		*p = nil
		byteShells.Put(p)
		return s[:n]
	}
	return make([]byte, n, 1<<b)
}

// PutBytes recycles a buffer obtained from GetBytes. Only exact
// power-of-two capacities are accepted (anything else came from somewhere
// other than GetBytes and is silently dropped). The caller must not use
// buf afterwards.
func PutBytes(buf []byte) {
	c := cap(buf)
	if c == 0 || c&(c-1) != 0 || bits.Len(uint(c))-1 > maxBucket {
		return
	}
	p := byteShells.Get().(*[]byte)
	*p = buf[:0:c]
	bytePools[bits.Len(uint(c))-1].Put(p)
}

// Tensor headers recycle through a pool of their own, each keeping its
// rank-4 shape backing, so a GetTensor/PutTensor pair allocates nothing
// at steady state: not the data, not the header, not the shape.
var headers = sync.Pool{New: func() any { return header(nil) }}

// GetTensor returns a tensor with pooled storage and header and
// unspecified contents. Release it with PutTensor.
func GetTensor(shape ...int) *Tensor {
	t := headers.Get().(*Tensor)
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = GetBuf(Volume(shape))
	return t
}

// PutTensor recycles a tensor obtained from GetTensor: its storage and
// its header both go back to the pools, so neither t nor any view sharing
// its data may be used afterwards — a later GetTensor hands the same
// header to someone else. A nil t is a no-op.
func PutTensor(t *Tensor) {
	if t == nil {
		return
	}
	PutBuf(t.Data)
	t.Data = nil
	headers.Put(t)
}
