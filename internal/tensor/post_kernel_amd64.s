//go:build amd64 && !noasm

#include "textflag.h"

// Post-ops and the 2×2 max-pool, bit-exact with the portable loops in
// post.go. Go's operand order is the reverse of Intel's: VMAXPS b, a, d
// is Intel's vmaxps d, a, b, which keeps a only where a > b and returns
// b where either is a NaN or they are equal.

// func rowPostAVX512(dst, src, skip *float32, n int, scale, shift float32, flags int)
//
// y = relu(skip + (scale·x + shift)), each op under its flag and
// rounded on its own: VMULPS then VADDPS, no FMA. The running value is
// always the first source, as in the scalar loop, so a NaN it carries
// wins over a NaN skip. The ReLU is max(v, +0) with v first: NaN, −0
// and negatives give the +0. The flags are loop-invariant, so their
// branches predict. The last 1–16 floats are one masked step.
TEXT ·rowPostAVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ skip+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ flags+40(FP), R8

	VBROADCASTSS scale+32(FP), Z1
	VBROADCASTSS shift+36(FP), Z2
	VPXORD       Z3, Z3, Z3

	DECQ CX
	MOVQ CX, R9
	ANDQ $15, R9
	INCQ R9      // lanes of the last step, 1–16
	SHRQ $4, CX  // full steps before it
	JZ   rp5last

rp5loop:
	VMOVUPS (SI), Z0
	TESTQ   $1, R8
	JZ      rp5b
	VMULPS  Z1, Z0, Z0
	VADDPS  Z2, Z0, Z0

rp5b:
	TESTQ  $2, R8
	JZ     rp5c
	VADDPS (DX), Z0, Z0

rp5c:
	TESTQ  $4, R8
	JZ     rp5d
	VMAXPS Z3, Z0, Z0

rp5d:
	VMOVUPS Z0, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    CX
	JNZ     rp5loop

rp5last:
	MOVQ      R9, CX
	MOVL      $1, AX
	SHLL      CX, AX
	DECL      AX
	KMOVW     AX, K1
	VMOVUPS.Z (SI), K1, Z0
	TESTQ     $1, R8
	JZ        rp5e
	VMULPS    Z1, Z0, Z0
	VADDPS    Z2, Z0, Z0

rp5e:
	TESTQ     $2, R8
	JZ        rp5f
	VMOVUPS.Z (DX), K1, Z4
	VADDPS    Z4, Z0, Z0

rp5f:
	TESTQ  $4, R8
	JZ     rp5g
	VMAXPS Z3, Z0, Z0

rp5g:
	VMOVUPS Z0, K1, (DI)
	VZEROUPPER
	RET

// func rowPostAVX2(dst, src, skip *float32, n int, scale, shift float32, flags int, tail *int32)
//
// rowPostAVX512 on 8 floats a step; the last 1–8 floats are one step
// whose loads and store are masked by the 8 words at tail.
TEXT ·rowPostAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ skip+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ flags+40(FP), R8
	MOVQ tail+48(FP), R9

	VBROADCASTSS scale+32(FP), Y1
	VBROADCASTSS shift+36(FP), Y2
	VXORPS       Y3, Y3, Y3
	VMOVDQU      (R9), Y15

	DECQ CX
	SHRQ $3, CX // full steps before the last
	JZ   rp2last

rp2loop:
	VMOVUPS (SI), Y0
	TESTQ   $1, R8
	JZ      rp2b
	VMULPS  Y1, Y0, Y0
	VADDPS  Y2, Y0, Y0

rp2b:
	TESTQ  $2, R8
	JZ     rp2c
	VADDPS (DX), Y0, Y0

rp2c:
	TESTQ  $4, R8
	JZ     rp2d
	VMAXPS Y3, Y0, Y0

rp2d:
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     rp2loop

rp2last:
	VMASKMOVPS (SI), Y15, Y0
	TESTQ      $1, R8
	JZ         rp2e
	VMULPS     Y1, Y0, Y0
	VADDPS     Y2, Y0, Y0

rp2e:
	TESTQ      $2, R8
	JZ         rp2f
	VMASKMOVPS (DX), Y15, Y4
	VADDPS     Y4, Y0, Y0

rp2f:
	TESTQ  $4, R8
	JZ     rp2g
	VMAXPS Y3, Y0, Y0

rp2g:
	VMASKMOVPS Y0, Y15, (DI)
	VZEROUPPER
	RET

// Go's max(x, y) on amd64 is −min(−x, −y), and min(a, b) is
// t1 = MINSS(a, b), t2 = MINSS(t1, a), t1|t2: the OR turns
// min(−0, +0) into −0, and where a NaN is involved it leaves the OR of
// both operands' bits. Negation commutes with picking an operand, so in
// the max domain that is u = MAXPS(x, y), v = MAXPS(u, x) and the OR of
// u and v with the sign bit ANDed instead (the negations flip it):
// max(−0, +0) = +0, and a NaN result carries both operands' bits.
//
// GOMAX512 sets x = max(x, y), t a scratch and Z31 the sign mask:
// VPTERNLOGD 0xD4 is sign ? x&t : x|t.
#define GOMAX512(x, y, t) \
	VMAXPS     y, x, t      \
	VMAXPS     x, t, x      \
	VPTERNLOGD $0xD4, Z31, t, x

// POOL512 pools 32 inputs of row 0 (Z0, Z1) and of row 1 (Z2, Z3) into
// 16 outputs in Z4. VSHUFPS picks the even and odd columns of two
// vectors per 128-bit lane, which leaves the outputs' 64-bit pairs in
// the order 0 4 1 5 2 6 3 7; the window max is lane-wise, so one
// VPERMPD at the end puts them back.
#define POOL512 \
	VSHUFPS $0x88, Z1, Z0, Z4 \
	VSHUFPS $0xDD, Z1, Z0, Z5 \
	VSHUFPS $0x88, Z3, Z2, Z6 \
	VSHUFPS $0xDD, Z3, Z2, Z7 \
	GOMAX512(Z4, Z5, Z8)      \
	GOMAX512(Z4, Z6, Z8)      \
	GOMAX512(Z4, Z7, Z8)      \
	VPERMPD Z4, Z30, Z4

// func maxPool2x2AVX512(dst, src *float32, planes, oh, w, skip int, inMask, outMask uint32)
//
// For each plane, each row pair: w/2 / 16 full steps of 16 outputs,
// then, when w/2 % 16 is not 0, one step with masked loads and store.
// dst advances by the outputs written; src by two rows per pair and
// skip floats per plane (an odd last row).
TEXT ·maxPool2x2AVX512(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ planes+16(FP), R8
	MOVQ oh+24(FP), R9
	MOVQ w+32(FP), R11
	MOVQ skip+40(FP), R12
	MOVL inMask+48(FP), AX
	KMOVD    AX, K1
	KSHIFTRD $16, K1, K2
	MOVL     outMask+52(FP), AX
	KMOVW    AX, K3

	MOVL         $0x80000000, AX
	VPBROADCASTD AX, Z31
	VMOVDQU64    pool512Perm<>(SB), Z30

	MOVQ R11, R13
	SHRQ $5, R13  // full steps per row
	MOVQ R11, R14
	SHRQ $1, R14
	ANDQ $15, R14 // outputs of the masked step
	SHLQ $2, R11  // row stride in bytes
	SHLQ $2, R12  // plane skip in bytes

mp5plane:
	MOVQ R9, R10

mp5row:
	MOVQ  SI, AX
	LEAQ  (SI)(R11*1), BX
	MOVQ  R13, CX
	TESTQ CX, CX
	JZ    mp5tail

mp5step:
	VMOVUPS (AX), Z0
	VMOVUPS 64(AX), Z1
	VMOVUPS (BX), Z2
	VMOVUPS 64(BX), Z3
	POOL512
	VMOVUPS Z4, (DI)
	ADDQ    $128, AX
	ADDQ    $128, BX
	ADDQ    $64, DI
	DECQ    CX
	JNZ     mp5step

mp5tail:
	TESTQ     R14, R14
	JZ        mp5next
	VMOVUPS.Z (AX), K1, Z0
	VMOVUPS.Z 64(AX), K2, Z1
	VMOVUPS.Z (BX), K1, Z2
	VMOVUPS.Z 64(BX), K2, Z3
	POOL512
	VMOVUPS   Z4, K3, (DI)
	LEAQ      (DI)(R14*4), DI

mp5next:
	LEAQ (SI)(R11*2), SI
	DECQ R10
	JNZ  mp5row
	ADDQ R12, SI
	DECQ R8
	JNZ  mp5plane

	VZEROUPPER
	RET

DATA  pool512Perm<>+0(SB)/8, $0
DATA  pool512Perm<>+8(SB)/8, $2
DATA  pool512Perm<>+16(SB)/8, $4
DATA  pool512Perm<>+24(SB)/8, $6
DATA  pool512Perm<>+32(SB)/8, $1
DATA  pool512Perm<>+40(SB)/8, $3
DATA  pool512Perm<>+48(SB)/8, $5
DATA  pool512Perm<>+56(SB)/8, $7
GLOBL pool512Perm<>(SB), RODATA|NOPTR, $64

// GOMIN256 sets a = min(a, b) as Go's min does, t a scratch: without
// VPTERNLOGD the AVX2 kernel works on negated values, where max is this
// min, and negates the result back.
#define GOMIN256(a, b, t) \
	VMINPS b, a, t \
	VMINPS a, t, a \
	VORPS  t, a, a

// POOL256 pools 16 inputs of row 0 (Y0, Y1) and of row 1 (Y2, Y3) into
// 8 outputs in Y4, Y15 the sign mask: the columns split per lane as in
// POOL512 (64-bit pairs in the order 0 2 1 3), negated, min-reduced,
// negated back and reordered.
#define POOL256 \
	VSHUFPS $0x88, Y1, Y0, Y4 \
	VSHUFPS $0xDD, Y1, Y0, Y5 \
	VSHUFPS $0x88, Y3, Y2, Y6 \
	VSHUFPS $0xDD, Y3, Y2, Y7 \
	VXORPS  Y15, Y4, Y4       \
	VXORPS  Y15, Y5, Y5       \
	VXORPS  Y15, Y6, Y6       \
	VXORPS  Y15, Y7, Y7       \
	GOMIN256(Y4, Y5, Y8)      \
	GOMIN256(Y4, Y6, Y8)      \
	GOMIN256(Y4, Y7, Y8)      \
	VXORPS  Y15, Y4, Y4       \
	VPERMPD $0xD8, Y4, Y4

// func maxPool2x2AVX2(dst, src *float32, planes, oh, w, skip int, inLo, inHi, out *int32)
//
// maxPool2x2AVX512 with 8 outputs a step; the masked step's masks are
// the words at inLo and inHi (16 inputs of a row) and at out.
TEXT ·maxPool2x2AVX2(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ planes+16(FP), R8
	MOVQ oh+24(FP), R9
	MOVQ w+32(FP), R11
	MOVQ skip+40(FP), R12
	MOVQ inLo+48(FP), AX
	VMOVDQU (AX), Y12
	MOVQ inHi+56(FP), AX
	VMOVDQU (AX), Y13
	MOVQ out+64(FP), AX
	VMOVDQU (AX), Y14

	MOVL         $0x80000000, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15

	MOVQ R11, R13
	SHRQ $4, R13 // full steps per row
	MOVQ R11, R14
	SHRQ $1, R14
	ANDQ $7, R14 // outputs of the masked step
	SHLQ $2, R11
	SHLQ $2, R12

mp2plane:
	MOVQ R9, R10

mp2row:
	MOVQ  SI, AX
	LEAQ  (SI)(R11*1), BX
	MOVQ  R13, CX
	TESTQ CX, CX
	JZ    mp2tail

mp2step:
	VMOVUPS (AX), Y0
	VMOVUPS 32(AX), Y1
	VMOVUPS (BX), Y2
	VMOVUPS 32(BX), Y3
	POOL256
	VMOVUPS Y4, (DI)
	ADDQ    $64, AX
	ADDQ    $64, BX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     mp2step

mp2tail:
	TESTQ      R14, R14
	JZ         mp2next
	VMASKMOVPS (AX), Y12, Y0
	VMASKMOVPS 32(AX), Y13, Y1
	VMASKMOVPS (BX), Y12, Y2
	VMASKMOVPS 32(BX), Y13, Y3
	POOL256
	VMASKMOVPS Y4, Y14, (DI)
	LEAQ       (DI)(R14*4), DI

mp2next:
	LEAQ (SI)(R11*2), SI
	DECQ R10
	JNZ  mp2row
	ADDQ R12, SI
	DECQ R8
	JNZ  mp2plane

	VZEROUPPER
	RET
