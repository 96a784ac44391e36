//go:build amd64 && !noasm

#include "textflag.h"
#include "go_asm.h"

// f32 GEMM micro-kernels. Each computes one MR×nr tile of
// C = post(bias + A·B) with the whole k loop inside: the tile lives in
// vector registers from the first multiply to the single store, row r
// seeded with bias[r]. After the k loop the post-ops of *gemmPost run on
// the registers in Epilogue order — the folded BatchNorm (multiply, then
// add: two roundings, no FMA), the residual add (loaded under the lane
// mask), the ReLU (VMAXPS with +0 as the second source, which is what it
// returns for NaN and for −0) — each pass over all six rows skipped when
// its op is off.
// A is read in place, one broadcast per (row, k); B rows are loaded nr
// wide under a lane mask, so nr may be anything in [1, NR] and nothing
// past column nr is read or written. Every C element is one chain of
// fused multiply-adds in ascending k — the same chain whatever the
// tile's position, so results do not depend on how C is cut into tiles.

// The 6×64 AVX-512 tile: Z24..Z27 hold the B row, row r of C lives in
// Z(4r)..Z(4r+3). Six broadcasts and four B loads feed 24 multiply-adds
// (a 12×32 tile needs 14 loads for the same 24), which keeps the loop
// on the FMA units when a neighbour on the core takes load slots
// (DESIGN.md §5c has the measurement). ROWv is one row of a tile v
// vectors wide, a is A[r][p]; a narrow last panel runs the loop for its
// own width and spends nothing on dead vectors.
#define ROW1(a, c0, c1, c2, c3) \
	VBROADCASTSS a, Z28       \
	VFMADD231PS  Z28, Z24, c0

#define ROW2(a, c0, c1, c2, c3) \
	ROW1(a, c0, c1, c2, c3)   \
	VFMADD231PS Z28, Z25, c1

#define ROW3(a, c0, c1, c2, c3) \
	ROW2(a, c0, c1, c2, c3)   \
	VFMADD231PS Z28, Z26, c2

#define ROW4(a, c0, c1, c2, c3) \
	ROW3(a, c0, c1, c2, c3)   \
	VFMADD231PS Z28, Z27, c3

// BROWv loads a B row v vectors wide and prefetches the row 9 ahead.
#define BROW1 \
	VMOVUPS.Z  (SI), K1, Z24 \
	PREFETCHT0 (SI)(R13*1)

#define BROW2 \
	BROW1                       \
	VMOVUPS.Z  64(SI), K2, Z25 \
	PREFETCHT0 64(SI)(R13*1)

#define BROW3 \
	BROW2                        \
	VMOVUPS.Z  128(SI), K3, Z26 \
	PREFETCHT0 128(SI)(R13*1)

#define BROW4 \
	BROW3                        \
	VMOVUPS.Z  192(SI), K4, Z27 \
	PREFETCHT0 192(SI)(R13*1)

#define KLOOP512(loop, BROW, ROW) \
loop:                               \
	BROW                             \
	ADDQ R10, SI                     \
	ROW((AX), Z0, Z1, Z2, Z3)        \
	ROW((AX)(R8*1), Z4, Z5, Z6, Z7)  \
	ROW((AX)(R8*2), Z8, Z9, Z10, Z11) \
	ROW((BX), Z12, Z13, Z14, Z15)    \
	ROW((BX)(R8*1), Z16, Z17, Z18, Z19) \
	ROW((BX)(R8*2), Z20, Z21, Z22, Z23) \
	ADDQ $4, AX                      \
	ADDQ $4, BX                      \
	DECQ DX                          \
	JNZ  loop                        \
	JMP  store512

#define SEED512(off, c0, c1, c2, c3) \
	VBROADCASTSS off(R11), c0 \
	VMOVAPS      c0, c1       \
	VMOVAPS      c0, c2       \
	VMOVAPS      c0, c3

// AFFINE512: row r's y = float32(scale·y) + shift, scale at off(R10),
// shift at off(R11).
#define AFFINE512(off, c0, c1, c2, c3) \
	VBROADCASTSS off(R10), Z28 \
	VBROADCASTSS off(R11), Z29 \
	VMULPS       Z28, c0, c0   \
	VMULPS       Z28, c1, c1   \
	VMULPS       Z28, c2, c2   \
	VMULPS       Z28, c3, c3   \
	VADDPS       Z29, c0, c0   \
	VADDPS       Z29, c1, c1   \
	VADDPS       Z29, c2, c2   \
	VADDPS       Z29, c3, c3

// SKIP512 adds the skip row at R10 under the column masks and steps R10
// to the next row.
#define SKIP512(c0, c1, c2, c3) \
	VADDPS (R10), c0, K1, c0    \
	VADDPS 64(R10), c1, K2, c1  \
	VADDPS 128(R10), c2, K3, c2 \
	VADDPS 192(R10), c3, K4, c3 \
	ADDQ   R8, R10

// RELU512: y = max(y, +0) with Z28 = +0 as the source returned for NaN
// and for a zero of either sign.
#define RELU512(c0, c1, c2, c3) \
	VMAXPS Z28, c0, c0 \
	VMAXPS Z28, c1, c1 \
	VMAXPS Z28, c2, c2 \
	VMAXPS Z28, c3, c3

#define STORE512(c0, c1, c2, c3) \
	VMOVUPS c0, K1, (DI)    \
	VMOVUPS c1, K2, 64(DI)  \
	VMOVUPS c2, K3, 128(DI) \
	VMOVUPS c3, K4, 192(DI) \
	ADDQ    R12, DI

// func gemmTileAVX512(c *float32, ldc int, a *float32, lda int, b *float32, ldb, k int, mask uint64, bias *float32, post *gemmPost)
//
// 6×64 tile: 24 ZMM accumulators. Bits [0,64) of mask select the live
// columns; a must address 6 readable rows of k floats, bias 6 floats.
// Strides are in elements.
TEXT ·gemmTileAVX512(SB), NOSPLIT, $0-80
	MOVQ     c+0(FP), DI
	MOVQ     ldc+8(FP), R12
	MOVQ     a+16(FP), AX
	MOVQ     lda+24(FP), R8
	MOVQ     b+32(FP), SI
	MOVQ     ldb+40(FP), R10
	MOVQ     k+48(FP), DX
	KMOVQ    mask+56(FP), K1
	MOVQ     bias+64(FP), R11
	KSHIFTRQ $16, K1, K2
	KSHIFTRQ $32, K1, K3
	KSHIFTRQ $48, K1, K4
	SHLQ     $2, R12
	SHLQ     $2, R8
	SHLQ     $2, R10
	LEAQ     (R8)(R8*2), BX
	ADDQ     AX, BX            // A rows 3..5
	LEAQ     (R10)(R10*8), R13 // B prefetch distance: 9 rows

	SEED512(0, Z0, Z1, Z2, Z3)
	SEED512(4, Z4, Z5, Z6, Z7)
	SEED512(8, Z8, Z9, Z10, Z11)
	SEED512(12, Z12, Z13, Z14, Z15)
	SEED512(16, Z16, Z17, Z18, Z19)
	SEED512(20, Z20, Z21, Z22, Z23)
	TESTQ   DX, DX
	JZ      store512
	KTESTQ  K4, K4
	JNZ     loop512x4
	KTESTQ  K3, K3
	JNZ     loop512x3
	KTESTQ  K2, K2
	JNZ     loop512x2
	KLOOP512(loop512x1, BROW1, ROW1)
	KLOOP512(loop512x2, BROW2, ROW2)
	KLOOP512(loop512x3, BROW3, ROW3)
	KLOOP512(loop512x4, BROW4, ROW4)

store512:
	MOVQ  post+72(FP), R9
	MOVQ  gemmPost_scale(R9), R10
	TESTQ R10, R10
	JZ    skip512
	MOVQ  gemmPost_shift(R9), R11
	AFFINE512(0, Z0, Z1, Z2, Z3)
	AFFINE512(4, Z4, Z5, Z6, Z7)
	AFFINE512(8, Z8, Z9, Z10, Z11)
	AFFINE512(12, Z12, Z13, Z14, Z15)
	AFFINE512(16, Z16, Z17, Z18, Z19)
	AFFINE512(20, Z20, Z21, Z22, Z23)

skip512:
	MOVQ  gemmPost_skip(R9), R10
	TESTQ R10, R10
	JZ    relu512
	MOVQ  gemmPost_ldskip(R9), R8
	SHLQ  $2, R8
	SKIP512(Z0, Z1, Z2, Z3)
	SKIP512(Z4, Z5, Z6, Z7)
	SKIP512(Z8, Z9, Z10, Z11)
	SKIP512(Z12, Z13, Z14, Z15)
	SKIP512(Z16, Z17, Z18, Z19)
	SKIP512(Z20, Z21, Z22, Z23)

relu512:
	CMPB   gemmPost_relu(R9), $0
	JEQ    out512
	VPXORD Z28, Z28, Z28
	RELU512(Z0, Z1, Z2, Z3)
	RELU512(Z4, Z5, Z6, Z7)
	RELU512(Z8, Z9, Z10, Z11)
	RELU512(Z12, Z13, Z14, Z15)
	RELU512(Z16, Z17, Z18, Z19)
	RELU512(Z20, Z21, Z22, Z23)

out512:
	STORE512(Z0, Z1, Z2, Z3)
	STORE512(Z4, Z5, Z6, Z7)
	STORE512(Z8, Z9, Z10, Z11)
	STORE512(Z12, Z13, Z14, Z15)
	STORE512(Z16, Z17, Z18, Z19)
	STORE512(Z20, Z21, Z22, Z23)
	VZEROUPPER
	RET

// One row of the 6×16 AVX2 tile: Y12/Y13 hold the B row.
#define ROW256(a, c0, c1) \
	VBROADCASTSS a, Y14       \
	VFMADD231PS  Y14, Y12, c0 \
	VFMADD231PS  Y14, Y13, c1

#define SEED256(off, c0, c1) \
	VBROADCASTSS off(R11), c0 \
	VMOVAPS      c0, c1

// AFFINE256, SKIP256 and RELU256 are the 512 macros on a row of two YMM
// vectors; Y12/Y13 are free after the k loop, Y14/Y15 hold the masks.
#define AFFINE256(off, c0, c1) \
	VBROADCASTSS off(R10), Y12 \
	VBROADCASTSS off(R11), Y13 \
	VMULPS       Y12, c0, c0   \
	VMULPS       Y12, c1, c1   \
	VADDPS       Y13, c0, c0   \
	VADDPS       Y13, c1, c1

#define SKIP256(c0, c1) \
	VMASKMOVPS (R10), Y14, Y12   \
	VMASKMOVPS 32(R10), Y15, Y13 \
	VADDPS     Y12, c0, c0       \
	VADDPS     Y13, c1, c1       \
	ADDQ       R8, R10

#define RELU256(c0, c1) \
	VMAXPS Y12, c0, c0 \
	VMAXPS Y12, c1, c1

#define STORE256(c0, c1) \
	VMASKMOVPS c0, Y14, (DI)   \
	VMASKMOVPS c1, Y15, 32(DI) \
	ADDQ       R12, DI

// func gemmTileAVX2(c *float32, ldc int, a *float32, lda int, b *float32, ldb, k int, mask *int32, bias *float32, post *gemmPost)
//
// 6×16 tile: 12 YMM accumulators, which leaves one register for the
// broadcast and one for a lane mask, so the two masks (mask[0:8] and
// mask[8:16], all-ones words for live columns) are reloaded per B row.
TEXT ·gemmTileAVX2(SB), NOSPLIT, $0-80
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R12
	MOVQ a+16(FP), AX
	MOVQ lda+24(FP), R8
	MOVQ b+32(FP), SI
	MOVQ ldb+40(FP), R10
	MOVQ k+48(FP), DX
	MOVQ mask+56(FP), R13
	MOVQ bias+64(FP), R11
	SHLQ $2, R12
	SHLQ $2, R8
	SHLQ $2, R10
	LEAQ (R8)(R8*2), BX
	ADDQ AX, BX              // A rows 3..5

	SEED256(0, Y0, Y1)
	SEED256(4, Y2, Y3)
	SEED256(8, Y4, Y5)
	SEED256(12, Y6, Y7)
	SEED256(16, Y8, Y9)
	SEED256(20, Y10, Y11)
	TESTQ DX, DX
	JZ    store256

loop256:
	VMOVDQU    (R13), Y14
	VMOVDQU    32(R13), Y15
	VMASKMOVPS (SI), Y14, Y12
	VMASKMOVPS 32(SI), Y15, Y13
	ADDQ       R10, SI
	ROW256((AX), Y0, Y1)
	ROW256((AX)(R8*1), Y2, Y3)
	ROW256((AX)(R8*2), Y4, Y5)
	ROW256((BX), Y6, Y7)
	ROW256((BX)(R8*1), Y8, Y9)
	ROW256((BX)(R8*2), Y10, Y11)
	ADDQ $4, AX
	ADDQ $4, BX
	DECQ DX
	JNZ  loop256

store256:
	VMOVDQU (R13), Y14
	VMOVDQU 32(R13), Y15
	MOVQ    post+72(FP), R9
	MOVQ    gemmPost_scale(R9), R10
	TESTQ   R10, R10
	JZ      skip256
	MOVQ    gemmPost_shift(R9), R11
	AFFINE256(0, Y0, Y1)
	AFFINE256(4, Y2, Y3)
	AFFINE256(8, Y4, Y5)
	AFFINE256(12, Y6, Y7)
	AFFINE256(16, Y8, Y9)
	AFFINE256(20, Y10, Y11)

skip256:
	MOVQ  gemmPost_skip(R9), R10
	TESTQ R10, R10
	JZ    relu256
	MOVQ  gemmPost_ldskip(R9), R8
	SHLQ  $2, R8
	SKIP256(Y0, Y1)
	SKIP256(Y2, Y3)
	SKIP256(Y4, Y5)
	SKIP256(Y6, Y7)
	SKIP256(Y8, Y9)
	SKIP256(Y10, Y11)

relu256:
	CMPB   gemmPost_relu(R9), $0
	JEQ    out256
	VXORPS Y12, Y12, Y12
	RELU256(Y0, Y1)
	RELU256(Y2, Y3)
	RELU256(Y4, Y5)
	RELU256(Y6, Y7)
	RELU256(Y8, Y9)
	RELU256(Y10, Y11)

out256:
	STORE256(Y0, Y1)
	STORE256(Y2, Y3)
	STORE256(Y4, Y5)
	STORE256(Y6, Y7)
	STORE256(Y8, Y9)
	STORE256(Y10, Y11)
	VZEROUPPER
	RET
