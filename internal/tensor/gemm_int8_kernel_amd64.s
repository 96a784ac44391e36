//go:build amd64 && !noasm

#include "textflag.h"
#include "go_asm.h"

// func int8PanelVNNI(p *int8Panel)
//
// int8PanelGeneric in AVX-512 VNNI. Each 4×4 tile of the panel keeps
// acc(r, c) in Z(4r+c) over the whole of kp: per 64-byte k step four
// A rows and four B columns are loaded and VPDPBUSD multiplies unsigned
// activation bytes against signed weight bytes, adding quads into the
// 16 int32 lanes — exact, since each quad is at most 4·32640 and kp ≤
// int8MaxKP keeps a lane inside int32 (this is the non-saturating
// VPDPBUSD). kp is a whole number of steps. The 16 accumulators are
// then summed horizontally in one shuffle tree that leaves 128-bit lane
// r holding row r's four columns, and the tile is requantized and run
// through the post-ops (or not, when raw) and stored under a column
// mask. The k loop counts DX up from -kp to 0, so the row and column
// pointers carry kp.
//
// Registers: R8-R11 A rows, R12 R13 BX SI the tile's B columns, AX the
// tile's first column, CX b+kp, DI p; Z24 the lane index, Z25-Z29
// corr, scale, bias, postScale and postShift spread to their rows'
// lanes, Z30 +0; K2 the live columns.

// HALVES: x = [x.Q0+x.Q2, x.Q1+x.Q3, y.Q0+y.Q2, y.Q1+y.Q3].
#define HALVES(x, y, t) \
	VSHUFI64X2 $0x44, y, x, t \
	VSHUFI64X2 $0xEE, y, x, x \
	VPADDD     t, x, x

// QUARTERS: given two HALVES results, each 256-bit half one
// accumulator, p = four 128-bit partial sums, one accumulator each.
#define QUARTERS(p, r, t) \
	VSHUFI64X2 $0x88, r, p, t \
	VSHUFI64X2 $0xDD, r, p, p \
	VPADDD     t, p, p

// PAIRS: per 128-bit lane, s = [two partials of s, two partials of s1].
#define PAIRS(s, s1, t) \
	VPUNPCKLQDQ s1, s, t \
	VPUNPCKHQDQ s1, s, s \
	VPADDD      t, s, s

TEXT ·int8PanelVNNI(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), DI
	MOVQ int8Panel_kp(DI), DX

	MOVQ int8Panel_a+0(DI), R8
	MOVQ int8Panel_a+8(DI), R9
	MOVQ int8Panel_a+16(DI), R10
	MOVQ int8Panel_a+24(DI), R11
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ DX, R10
	ADDQ DX, R11
	MOVQ int8Panel_b(DI), CX
	ADDQ DX, CX

	CMPB int8Panel_raw(DI), $0
	JNE  cols
	VMOVDQU32 rowLanes<>(SB), Z24
	VMOVDQU32 int8Panel_corr(DI), X25
	VPERMD    Z25, Z24, Z25
	VMOVDQU32 int8Panel_scale(DI), X26
	VPERMD    Z26, Z24, Z26
	VMOVDQU32 int8Panel_bias(DI), X27
	VPERMD    Z27, Z24, Z27
	VMOVDQU32 int8Panel_postScale(DI), X28
	VPERMD    Z28, Z24, Z28
	VMOVDQU32 int8Panel_postShift(DI), X29
	VPERMD    Z29, Z24, Z29
	VPXORD    Z30, Z30, Z30

cols:
	XORQ AX, AX

tile:
	// Column c of the tile is min(j+c, n-1): past n it aliases the
	// last live column, whose duplicate sums the store mask drops.
	MOVQ    int8Panel_n(DI), SI
	DECQ    SI
	LEAQ    1(AX), R13
	CMPQ    R13, SI
	CMOVQGT SI, R13
	LEAQ    2(AX), BX
	CMPQ    BX, SI
	CMOVQGT SI, BX
	LEAQ    3(AX), R12
	CMPQ    R12, SI
	CMOVQLT R12, SI
	MOVQ    AX, R12
	IMULQ   int8Panel_kp(DI), R12
	IMULQ   int8Panel_kp(DI), R13
	IMULQ   int8Panel_kp(DI), BX
	IMULQ   int8Panel_kp(DI), SI
	ADDQ    CX, R12
	ADDQ    CX, R13
	ADDQ    CX, BX
	ADDQ    CX, SI

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15

	MOVQ int8Panel_b(DI), DX
	SUBQ CX, DX // -kp

kloop:
	VMOVDQU8 (R8)(DX*1), Z16
	VMOVDQU8 (R9)(DX*1), Z17
	VMOVDQU8 (R10)(DX*1), Z18
	VMOVDQU8 (R11)(DX*1), Z19
	VMOVDQU8 (R12)(DX*1), Z20
	VMOVDQU8 (R13)(DX*1), Z21
	VMOVDQU8 (BX)(DX*1), Z22
	VMOVDQU8 (SI)(DX*1), Z23
	VPDPBUSD Z16, Z20, Z0
	VPDPBUSD Z17, Z20, Z4
	VPDPBUSD Z18, Z20, Z8
	VPDPBUSD Z19, Z20, Z12
	VPDPBUSD Z16, Z21, Z1
	VPDPBUSD Z17, Z21, Z5
	VPDPBUSD Z18, Z21, Z9
	VPDPBUSD Z19, Z21, Z13
	VPDPBUSD Z16, Z22, Z2
	VPDPBUSD Z17, Z22, Z6
	VPDPBUSD Z18, Z22, Z10
	VPDPBUSD Z19, Z22, Z14
	VPDPBUSD Z16, Z23, Z3
	VPDPBUSD Z17, Z23, Z7
	VPDPBUSD Z18, Z23, Z11
	VPDPBUSD Z19, Z23, Z15
	ADDQ     $64, DX
	JNZ      kloop

	// The horizontal sums.
	HALVES(Z0, Z4, Z16)
	HALVES(Z8, Z12, Z17)
	HALVES(Z1, Z5, Z18)
	HALVES(Z9, Z13, Z19)
	HALVES(Z2, Z6, Z20)
	HALVES(Z10, Z14, Z21)
	HALVES(Z3, Z7, Z22)
	HALVES(Z11, Z15, Z23)
	QUARTERS(Z0, Z8, Z16) // lane r: column 0 of row r
	QUARTERS(Z1, Z9, Z17)
	QUARTERS(Z2, Z10, Z18)
	QUARTERS(Z3, Z11, Z19)
	PAIRS(Z0, Z1, Z20)
	PAIRS(Z2, Z3, Z21)
	VSHUFPS $0x88, Z2, Z0, Z16
	VSHUFPS $0xDD, Z2, Z0, Z0
	VPADDD  Z16, Z0, Z0 // lane r, dword c: acc(r, c)

	MOVQ    CX, R13 // b+kp, while CL holds the shift
	MOVQ    int8Panel_n(DI), CX
	SUBQ    AX, CX
	MOVQ    $4, BX
	CMPQ    CX, BX
	CMOVQGT BX, CX
	MOVQ    $1, BX
	SHLQ    CX, BX
	DECQ    BX
	KMOVW   BX, K2
	MOVQ    R13, CX

	CMPB int8Panel_raw(DI), $0
	JNE  store
	VPSUBD    Z25, Z0, Z0
	VCVTDQ2PS Z0, Z0
	VMULPS    Z26, Z0, Z0 // rounded on its own: no FMA
	VADDPS    Z27, Z0, Z0

	// The post-ops, in Epilogue order, each rounded on its own.
	CMPB   int8Panel_affine(DI), $0
	JEQ    skip
	VMULPS Z28, Z0, Z0
	VADDPS Z29, Z0, Z0

skip:
	// Row r's four skip floats into lane r, loaded under the column mask.
	MOVQ         int8Panel_skip+0(DI), BX
	TESTQ        BX, BX
	JZ           relu
	VMOVUPS.Z    (BX)(AX*4), K2, X16
	MOVQ         int8Panel_skip+8(DI), BX
	VMOVUPS.Z    (BX)(AX*4), K2, X17
	MOVQ         int8Panel_skip+16(DI), BX
	VMOVUPS.Z    (BX)(AX*4), K2, X18
	MOVQ         int8Panel_skip+24(DI), BX
	VMOVUPS.Z    (BX)(AX*4), K2, X19
	VINSERTF32X4 $1, X17, Z16, Z16
	VINSERTF32X4 $2, X18, Z16, Z16
	VINSERTF32X4 $3, X19, Z16, Z16
	VADDPS       Z16, Z0, Z0

relu:
	// +0 is the second source: what VMAXPS returns for NaN and for −0.
	CMPB   int8Panel_relu(DI), $0
	JEQ    store
	VMAXPS Z30, Z0, Z0

store:
	MOVQ          int8Panel_c+0(DI), BX
	VMOVDQU32     X0, K2, (BX)(AX*4)
	MOVQ          int8Panel_c+8(DI), BX
	VEXTRACTI32X4 $1, Z0, K2, (BX)(AX*4)
	MOVQ          int8Panel_c+16(DI), BX
	VEXTRACTI32X4 $2, Z0, K2, (BX)(AX*4)
	MOVQ          int8Panel_c+24(DI), BX
	VEXTRACTI32X4 $3, Z0, K2, (BX)(AX*4)

	ADDQ $4, AX
	CMPQ AX, int8Panel_n(DI)
	JLT  tile

	VZEROUPPER
	RET

// rowLanes spreads four per-row values to the four dwords of their
// row's 128-bit lane.
DATA  rowLanes<>+0(SB)/4, $0
DATA  rowLanes<>+4(SB)/4, $0
DATA  rowLanes<>+8(SB)/4, $0
DATA  rowLanes<>+12(SB)/4, $0
DATA  rowLanes<>+16(SB)/4, $1
DATA  rowLanes<>+20(SB)/4, $1
DATA  rowLanes<>+24(SB)/4, $1
DATA  rowLanes<>+28(SB)/4, $1
DATA  rowLanes<>+32(SB)/4, $2
DATA  rowLanes<>+36(SB)/4, $2
DATA  rowLanes<>+40(SB)/4, $2
DATA  rowLanes<>+44(SB)/4, $2
DATA  rowLanes<>+48(SB)/4, $3
DATA  rowLanes<>+52(SB)/4, $3
DATA  rowLanes<>+56(SB)/4, $3
DATA  rowLanes<>+60(SB)/4, $3
GLOBL rowLanes<>(SB), RODATA|NOPTR, $64
