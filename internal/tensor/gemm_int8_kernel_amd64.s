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
// VPDPBUSD). A kp%64 of 16, 32 or 48 is one more step with byte-masked,
// zeroing loads. The 16 accumulators are then summed horizontally in
// one shuffle tree that leaves 128-bit lane r holding row r's four
// columns, and the tile is requantized (or not, when raw) and stored
// under a column mask. The k loop counts DX up from -kfull to 0, so
// the row and column pointers carry kfull and the tail step reads at
// offset 0.
//
// Registers: R8-R11 A rows, R12 R13 BX SI the tile's B columns, AX the
// tile's first column, CX b+kfull, DI p; Z24 the lane index, Z25-Z27
// corr, scale and bias spread to their rows' lanes; K1 the k-tail mask,
// K2 the live columns.

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

#define DOT4(b) \
	VPDPBUSD Z16, b, Z0 \
	VPDPBUSD Z17, b, Z4 \
	VPDPBUSD Z18, b, Z8 \
	VPDPBUSD Z19, b, Z12

TEXT ·int8PanelVNNI(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), DI
	MOVQ int8Panel_kp(DI), DX
	MOVQ DX, CX
	ANDQ $63, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVQ AX, K1 // kp%64 low bytes; zero when there is no tail
	ANDQ $-64, DX // kfull

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
	SUBQ CX, DX // -kfull
	JZ   ktail

kloop:
	VMOVDQU8 (R8)(DX*1), Z16
	VMOVDQU8 (R9)(DX*1), Z17
	VMOVDQU8 (R10)(DX*1), Z18
	VMOVDQU8 (R11)(DX*1), Z19
	VMOVDQU8 (R12)(DX*1), Z20
	VMOVDQU8 (R13)(DX*1), Z21
	VMOVDQU8 (BX)(DX*1), Z22
	VMOVDQU8 (SI)(DX*1), Z23
	DOT4(Z20)
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

ktail:
	KORTESTQ K1, K1
	JZ       reduce
	VMOVDQU8.Z (R8), K1, Z16
	VMOVDQU8.Z (R9), K1, Z17
	VMOVDQU8.Z (R10), K1, Z18
	VMOVDQU8.Z (R11), K1, Z19
	VMOVDQU8.Z (R12), K1, Z20
	VMOVDQU8.Z (R13), K1, Z21
	VMOVDQU8.Z (BX), K1, Z22
	VMOVDQU8.Z (SI), K1, Z23
	DOT4(Z20)
	VPDPBUSD   Z16, Z21, Z1
	VPDPBUSD   Z17, Z21, Z5
	VPDPBUSD   Z18, Z21, Z9
	VPDPBUSD   Z19, Z21, Z13
	VPDPBUSD   Z16, Z22, Z2
	VPDPBUSD   Z17, Z22, Z6
	VPDPBUSD   Z18, Z22, Z10
	VPDPBUSD   Z19, Z22, Z14
	VPDPBUSD   Z16, Z23, Z3
	VPDPBUSD   Z17, Z23, Z7
	VPDPBUSD   Z18, Z23, Z11
	VPDPBUSD   Z19, Z23, Z15

reduce:
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

	CMPB int8Panel_raw(DI), $0
	JNE  store
	VPSUBD    Z25, Z0, Z0
	VCVTDQ2PS Z0, Z0
	VMULPS    Z26, Z0, Z0 // rounded on its own: no FMA
	VADDPS    Z27, Z0, Z0

store:
	MOVQ    CX, R13 // b+kfull, while CL holds the shift
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
