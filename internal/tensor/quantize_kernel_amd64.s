//go:build amd64 && !noasm

#include "textflag.h"

// func quantizePackAVX2(dst *uint8, src *float32, n int, invScale, zpF float32)
//
// Vectorized QuantizeAffine: q = clamp(trunc(clamp(x·inv + zp, 0, 255)
// + 0.5)) for 32 floats per iteration. Bit-exact with the scalar path
// by construction: the multiply and add are separate (scalar rounds
// each op, so FMA would diverge), the clamp runs on the float BEFORE
// the +0.5 and truncating convert (so an overflowing CVTTPS2DQ result
// can never appear), and the pack stages only see values already in
// [0, 255.5) where their saturation is inert. n must be a positive
// multiple of 32. NaN inputs are unspecified (callers reject them via
// MinMax/AffineFor before quantizing).
//
// Packing 4×8 int32 → 32 bytes: two VPACKSSDW and one VPACKUSWB work
// per 128-bit lane, leaving the 32 bytes in dword-interleaved order;
// the final VPERMD with pattern [0 4 1 5 2 6 3 7] restores source
// order.
TEXT ·quantizePackAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

	VBROADCASTSS invScale+24(FP), Y12
	VBROADCASTSS zpF+28(FP), Y13
	VXORPS       Y14, Y14, Y14          // 0.0
	MOVL         $0x437F0000, AX        // 255.0f
	VMOVD        AX, X15
	VBROADCASTSS X15, Y15
	MOVL         $0x3F000000, AX        // 0.5f
	VMOVD        AX, X11
	VBROADCASTSS X11, Y11

	// VPERMD index [0 4 1 5 2 6 3 7] via the stack-free route: build in
	// Y10 from a constant table in memory.
	VMOVDQU permIdx<>(SB), Y10

	SHRQ $5, CX // iterations = n/32
	XORQ DX, DX

loop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3

	VMULPS Y12, Y0, Y0 // x·invScale (separately rounded — no FMA)
	VMULPS Y12, Y1, Y1
	VMULPS Y12, Y2, Y2
	VMULPS Y12, Y3, Y3
	VADDPS Y13, Y0, Y0 // + zp
	VADDPS Y13, Y1, Y1
	VADDPS Y13, Y2, Y2
	VADDPS Y13, Y3, Y3
	VMAXPS Y14, Y0, Y0 // clamp low: max(v, 0)
	VMAXPS Y14, Y1, Y1
	VMAXPS Y14, Y2, Y2
	VMAXPS Y14, Y3, Y3
	VMINPS Y15, Y0, Y0 // clamp high: min(v, 255)
	VMINPS Y15, Y1, Y1
	VMINPS Y15, Y2, Y2
	VMINPS Y15, Y3, Y3
	VADDPS Y11, Y0, Y0 // + 0.5, then truncate = round half up
	VADDPS Y11, Y1, Y1
	VADDPS Y11, Y2, Y2
	VADDPS Y11, Y3, Y3

	VCVTTPS2DQ Y0, Y0
	VCVTTPS2DQ Y1, Y1
	VCVTTPS2DQ Y2, Y2
	VCVTTPS2DQ Y3, Y3

	VPACKSSDW Y1, Y0, Y0 // words, per-lane interleaved
	VPACKSSDW Y3, Y2, Y2
	VPACKUSWB Y2, Y0, Y0 // bytes, dword-interleaved
	VPERMD    Y0, Y10, Y0
	VMOVDQU   Y0, (DI)

	ADDQ $128, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

	VZEROUPPER
	RET

DATA  permIdx<>+0(SB)/4, $0
DATA  permIdx<>+4(SB)/4, $4
DATA  permIdx<>+8(SB)/4, $1
DATA  permIdx<>+12(SB)/4, $5
DATA  permIdx<>+16(SB)/4, $2
DATA  permIdx<>+20(SB)/4, $6
DATA  permIdx<>+24(SB)/4, $3
DATA  permIdx<>+28(SB)/4, $7
GLOBL permIdx<>(SB), RODATA|NOPTR, $32

// func quantizePackAVX512(dst *uint8, src *float32, n int, invScale, zpF float32)
//
// The AVX-512 variant is simpler: 16 floats per step, and VPMOVDB
// narrows the 16 int32 lanes straight to 16 bytes with no shuffle
// fixup (the values are already clamped to [0, 255], so plain
// truncating narrow is exact). Same scalar-exact op order as above.
// n must be positive; an n%16 tail is one more step whose load and
// store are masked to the live lanes.
TEXT ·quantizePackAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

	VBROADCASTSS invScale+24(FP), Z12
	VBROADCASTSS zpF+28(FP), Z13
	VPXORQ       Z14, Z14, Z14   // 0.0
	MOVL         $0x437F0000, AX // 255.0f
	VMOVD        AX, X15
	VBROADCASTSS X15, Z15
	MOVL         $0x3F000000, AX // 0.5f
	VMOVD        AX, X11
	VBROADCASTSS X11, Z11

	MOVQ CX, DX
	ANDQ $15, DX // tail lanes
	SHRQ $4, CX  // full steps = n/16
	JZ   tail

loop:
	VMOVUPS (SI), Z0
	VMULPS  Z12, Z0, Z0 // x·invScale (no FMA — scalar rounds each op)
	VADDPS  Z13, Z0, Z0 // + zp
	VMAXPS  Z14, Z0, Z0 // clamp low
	VMINPS  Z15, Z0, Z0 // clamp high
	VADDPS  Z11, Z0, Z0 // + 0.5
	VCVTTPS2DQ Z0, Z0
	VPMOVDB Z0, (DI)

	ADDQ $64, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  loop

tail:
	TESTQ DX, DX
	JZ    done
	MOVQ  DX, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1
	VMOVUPS.Z (SI), K1, Z0
	VMULPS  Z12, Z0, Z0
	VADDPS  Z13, Z0, Z0
	VMAXPS  Z14, Z0, Z0
	VMINPS  Z15, Z0, Z0
	VADDPS  Z11, Z0, Z0
	VCVTTPS2DQ Z0, Z0
	VPMOVDB Z0, K1, (DI)

done:
	VZEROUPPER
	RET

// func minMaxAVX2(xs *float32, n int) (mn, mx float32, nan bool)
//
// The minimum and maximum of n floats, n a positive multiple of 32,
// with four independent min and max chains, and whether any element is
// a NaN (an unordered compare of two vectors at a time, OR-ed up).
// With a NaN present, or with a zero result, the values are not the
// scalar scan's: MinMax falls back to it for those.
TEXT ·minMaxAVX2(SB), NOSPLIT, $0-25
	MOVQ xs+0(FP), SI
	MOVQ n+8(FP), CX
	SHRQ $5, CX

	VMOVUPS (SI), Y0
	VMOVAPS Y0, Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y0, Y3
	VMOVAPS Y0, Y4
	VMOVAPS Y0, Y5
	VMOVAPS Y0, Y6
	VMOVAPS Y0, Y7
	VXORPS  Y8, Y8, Y8

mmloop:
	VMOVUPS (SI), Y9
	VMOVUPS 32(SI), Y10
	VMOVUPS 64(SI), Y11
	VMOVUPS 96(SI), Y12
	VMINPS  Y9, Y0, Y0
	VMINPS  Y10, Y1, Y1
	VMINPS  Y11, Y2, Y2
	VMINPS  Y12, Y3, Y3
	VMAXPS  Y9, Y4, Y4
	VMAXPS  Y10, Y5, Y5
	VMAXPS  Y11, Y6, Y6
	VMAXPS  Y12, Y7, Y7
	VCMPPS  $3, Y10, Y9, Y13 // unordered: a NaN in either
	VORPS   Y13, Y8, Y8
	VCMPPS  $3, Y12, Y11, Y13
	VORPS   Y13, Y8, Y8
	ADDQ    $128, SI
	DECQ    CX
	JNZ     mmloop

	VMINPS       Y1, Y0, Y0
	VMINPS       Y3, Y2, Y2
	VMINPS       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMINPS       X1, X0, X0
	VPERMILPS    $0x4E, X0, X1
	VMINPS       X1, X0, X0
	VPERMILPS    $0xB1, X0, X1
	VMINPS       X1, X0, X0
	VMOVSS       X0, mn+16(FP)

	VMAXPS       Y5, Y4, Y4
	VMAXPS       Y7, Y6, Y6
	VMAXPS       Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VMAXPS       X5, X4, X4
	VPERMILPS    $0x4E, X4, X5
	VMAXPS       X5, X4, X4
	VPERMILPS    $0xB1, X4, X5
	VMAXPS       X5, X4, X4
	VMOVSS       X4, mx+20(FP)

	VMOVMSKPS Y8, AX
	TESTL     AX, AX
	SETNE     nan+24(FP)
	VZEROUPPER
	RET

// func gather3x3Words(row, src *uint8, c, wp, plane int)
//
// For each of c channels, plane bytes apart in src: the 3-byte runs at
// src, src+wp and src+2·wp, read as three words, become nine bytes of
// row stored as one word and one byte. Two channels per iteration, so
// their loads and stores overlap. Plain x86-64.
#define WINDOW(r0, r1, r2, w0, w1, w2) \
	MOVQ r0, w0           \
	MOVQ r1, w1           \
	MOVQ r2, w2           \
	ANDL $0xFFFFFF, w0    \
	ANDL $0xFFFFFF, w1    \
	SHLQ $24, w1          \
	ORQ  w1, w0           \
	MOVQ w2, w1           \
	SHLQ $48, w1          \
	ORQ  w1, w0           \
	SHRQ $16, w2

TEXT ·gather3x3Words(SB), NOSPLIT, $0-40
	MOVQ row+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ c+16(FP), CX
	MOVQ wp+24(FP), DX
	MOVQ plane+32(FP), R8
	LEAQ (SI)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	SHRQ $1, CX
	JZ   g3odd

g3loop:
	WINDOW((SI), (R9), (R10), AX, BX, R11)
	WINDOW((SI)(R8*1), (R9)(R8*1), (R10)(R8*1), R12, R13, DX)
	MOVQ AX, (DI)
	MOVB R11, 8(DI)
	MOVQ R12, 9(DI)
	MOVB DX, 17(DI)
	LEAQ (SI)(R8*2), SI
	LEAQ (R9)(R8*2), R9
	LEAQ (R10)(R8*2), R10
	ADDQ $18, DI
	DECQ CX
	JNZ  g3loop

g3odd:
	TESTQ $1, c+16(FP)
	JZ    g3done
	WINDOW((SI), (R9), (R10), AX, BX, R11)
	MOVQ AX, (DI)
	MOVB R11, 8(DI)

g3done:
	RET
