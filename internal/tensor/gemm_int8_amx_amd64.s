//go:build amd64 && !noasm

#include "textflag.h"
#include "go_asm.h"

// func int8TilesAMX(k *amxKernel)
//
// The AMX-INT8 engine. Per column pair, tmm0-3 accumulate a 2×2 block
// of C tiles over the whole of kp: C(a, b) += A(a)·B(b) with A tiles the
// 16 activation rows at stride kp (tmm4-5) and B tiles one 64-byte k
// step of 16 weight channels (tmm6-7). TDPBUSD multiplies unsigned A
// bytes by signed B bytes in quads into int32 — exact, as VPDPBUSD.
// A missing second column or channel tile skips its loads and products.
//
// C(a, b) is [column][channel]. Each live one is stored to the scratch
// and loaded into Z0-Z15, a row per register, where the requantize, bias
// and BatchNorm run with the channels' operands as lane vectors; then
// 64 shuffles transpose it in registers so a row holds one channel over
// the tile's 16 columns, and the skip and ReLU finish each row before a
// store under the tile's column mask. Every op is int8PanelVNNI's on
// the same element, rounded on its own.
//
// The tile state lives only inside this call: LDTILECFG at entry,
// TILERELEASE before RET. Go does not preempt assembly asynchronously,
// and a signal saves the tile registers in its frame like any other
// extended state.
//
// Registers in the k loop: AX BX the A tiles' rows, CX DX the B tiles,
// SI kp, DI 64, R8 the steps left, R11 R12 the second A and B tiles'
// presence; R9 k and R10 the pair throughout. The frame holds the
// pair's column tiles: their first columns js0 js1, their column masks
// mask0 mask1, and whether the second exists, twoA.

// Go's assembler has no AMX mnemonics: the instructions are encoded by
// hand (VEX.128.0F38.W0, opcodes 49 4B 5E). TILELOADD and TILESTORED
// take their memory operand as base + index·1 with legacy registers
// only, index being the row stride.
#define rAX 0
#define rCX 1
#define rDX 2
#define rBX 3
#define rSI 6
#define rDI 7

// LDTILECFG (DI)
#define LDTILECFG_DI BYTE $0xC4; BYTE $0xE2; BYTE $0x78; BYTE $0x49; BYTE $0x07
// TILERELEASE
#define TILERELEASE BYTE $0xC4; BYTE $0xE2; BYTE $0x78; BYTE $0x49; BYTE $0xC0
// TILEZERO tmm(t)
#define TILEZERO(t) BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x49; BYTE $(0xC0|(t<<3))
// TILELOADD tmm(t), [base + idx*1]
#define TILELOADD(t, base, idx) BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x4B; BYTE $((t<<3)|4); BYTE $((idx<<3)|base)
// TILESTORED [base + idx*1], tmm(t)
#define TILESTORED(t, base, idx) BYTE $0xC4; BYTE $0xE2; BYTE $0x7A; BYTE $0x4B; BYTE $((t<<3)|4); BYTE $((idx<<3)|base)
// TDPBUSD tmm(c), tmm(a), tmm(b)
#define TDPBUSD(c, a, b) BYTE $0xC4; BYTE $0xE2; BYTE $(((15-b)<<3)|1); BYTE $0x5E; BYTE $(0xC0|(c<<3)|a)

// LOAD16 loads the 16×16 dwords at (AX), 64 bytes a row, into Z0-Z15.
#define LOAD16 \
	VMOVDQU32 (AX), Z0 \
	VMOVDQU32 64(AX), Z1 \
	VMOVDQU32 128(AX), Z2 \
	VMOVDQU32 192(AX), Z3 \
	VMOVDQU32 256(AX), Z4 \
	VMOVDQU32 320(AX), Z5 \
	VMOVDQU32 384(AX), Z6 \
	VMOVDQU32 448(AX), Z7 \
	VMOVDQU32 512(AX), Z8 \
	VMOVDQU32 576(AX), Z9 \
	VMOVDQU32 640(AX), Z10 \
	VMOVDQU32 704(AX), Z11 \
	VMOVDQU32 768(AX), Z12 \
	VMOVDQU32 832(AX), Z13 \
	VMOVDQU32 896(AX), Z14 \
	VMOVDQU32 960(AX), Z15

// TRANSPOSE16 transposes Z0-Z15 as a 16×16 dword matrix: per-lane dword
// and qword unpacks, then two rounds of 128-bit lane shuffles through
// Z16-Z31.
#define TRANSPOSE16 \
	VPUNPCKLDQ Z1, Z0, Z16 \
	VPUNPCKHDQ Z1, Z0, Z17 \
	VPUNPCKLDQ Z3, Z2, Z18 \
	VPUNPCKHDQ Z3, Z2, Z19 \
	VPUNPCKLDQ Z5, Z4, Z20 \
	VPUNPCKHDQ Z5, Z4, Z21 \
	VPUNPCKLDQ Z7, Z6, Z22 \
	VPUNPCKHDQ Z7, Z6, Z23 \
	VPUNPCKLDQ Z9, Z8, Z24 \
	VPUNPCKHDQ Z9, Z8, Z25 \
	VPUNPCKLDQ Z11, Z10, Z26 \
	VPUNPCKHDQ Z11, Z10, Z27 \
	VPUNPCKLDQ Z13, Z12, Z28 \
	VPUNPCKHDQ Z13, Z12, Z29 \
	VPUNPCKLDQ Z15, Z14, Z30 \
	VPUNPCKHDQ Z15, Z14, Z31 \
	VPUNPCKLQDQ Z18, Z16, Z0 \
	VPUNPCKHQDQ Z18, Z16, Z1 \
	VPUNPCKLQDQ Z19, Z17, Z2 \
	VPUNPCKHQDQ Z19, Z17, Z3 \
	VPUNPCKLQDQ Z22, Z20, Z4 \
	VPUNPCKHQDQ Z22, Z20, Z5 \
	VPUNPCKLQDQ Z23, Z21, Z6 \
	VPUNPCKHQDQ Z23, Z21, Z7 \
	VPUNPCKLQDQ Z26, Z24, Z8 \
	VPUNPCKHQDQ Z26, Z24, Z9 \
	VPUNPCKLQDQ Z27, Z25, Z10 \
	VPUNPCKHQDQ Z27, Z25, Z11 \
	VPUNPCKLQDQ Z30, Z28, Z12 \
	VPUNPCKHQDQ Z30, Z28, Z13 \
	VPUNPCKLQDQ Z31, Z29, Z14 \
	VPUNPCKHQDQ Z31, Z29, Z15 \
	VSHUFI32X4 $0x88, Z4, Z0, Z16 \
	VSHUFI32X4 $0x88, Z5, Z1, Z17 \
	VSHUFI32X4 $0x88, Z6, Z2, Z18 \
	VSHUFI32X4 $0x88, Z7, Z3, Z19 \
	VSHUFI32X4 $0xDD, Z4, Z0, Z20 \
	VSHUFI32X4 $0xDD, Z5, Z1, Z21 \
	VSHUFI32X4 $0xDD, Z6, Z2, Z22 \
	VSHUFI32X4 $0xDD, Z7, Z3, Z23 \
	VSHUFI32X4 $0x88, Z12, Z8, Z24 \
	VSHUFI32X4 $0x88, Z13, Z9, Z25 \
	VSHUFI32X4 $0x88, Z14, Z10, Z26 \
	VSHUFI32X4 $0x88, Z15, Z11, Z27 \
	VSHUFI32X4 $0xDD, Z12, Z8, Z28 \
	VSHUFI32X4 $0xDD, Z13, Z9, Z29 \
	VSHUFI32X4 $0xDD, Z14, Z10, Z30 \
	VSHUFI32X4 $0xDD, Z15, Z11, Z31 \
	VSHUFI32X4 $0x88, Z24, Z16, Z0 \
	VSHUFI32X4 $0x88, Z25, Z17, Z1 \
	VSHUFI32X4 $0x88, Z26, Z18, Z2 \
	VSHUFI32X4 $0x88, Z27, Z19, Z3 \
	VSHUFI32X4 $0x88, Z28, Z20, Z4 \
	VSHUFI32X4 $0x88, Z29, Z21, Z5 \
	VSHUFI32X4 $0x88, Z30, Z22, Z6 \
	VSHUFI32X4 $0x88, Z31, Z23, Z7 \
	VSHUFI32X4 $0xDD, Z24, Z16, Z8 \
	VSHUFI32X4 $0xDD, Z25, Z17, Z9 \
	VSHUFI32X4 $0xDD, Z26, Z18, Z10 \
	VSHUFI32X4 $0xDD, Z27, Z19, Z11 \
	VSHUFI32X4 $0xDD, Z28, Z20, Z12 \
	VSHUFI32X4 $0xDD, Z29, Z21, Z13 \
	VSHUFI32X4 $0xDD, Z30, Z22, Z14 \
	VSHUFI32X4 $0xDD, Z31, Z23, Z15

// REQUANT(z) is int8PanelVNNI's requantize on one row of C(a, b): Z16
// holds the 16 channels' corr, Z17 their scale, Z18 their bias.
#define REQUANT(z) \
	VPSUBD Z16, z, z; \
	VCVTDQ2PS z, z; \
	VMULPS Z17, z, z; \
	VADDPS Z18, z, z

// AFFINE(z) is the BatchNorm post-op: Z19 the scales, Z20 the shifts.
#define AFFINE(z) \
	VMULPS Z19, z, z; \
	VADDPS Z20, z, z

// FINISH(z) adds the skip row at (R8) under K3 and takes the ReLU under
// K4 on row z of the transposed tile, stores it under the column mask
// K1 at element DI of the output (R12), and steps DI and R8 a row on.
#define FINISH(z) \
	VMOVUPS.Z (R8), K3, Z16; \
	VADDPS Z16, z, K3, z; \
	VMAXPS Z31, z, K4, z; \
	VMOVUPS z, K1, (R12)(DI*4); \
	ADDQ SI, DI; \
	ADDQ CX, R8

// MORE(r) ends the tile when it has no channel r.
#define MORE(r) CMPQ BX, $r; JLE nexttile

TEXT ·int8TilesAMX(SB), NOSPLIT, $40-8
	MOVQ k+0(FP), R9
	LEAQ amxKernel_cfg(R9), DI
	LDTILECFG_DI
	XORQ R10, R10

pair:
	CMPQ R10, amxKernel_pairs(R9)
	JGE  done

	// Column tile t = 2p+a starts at min(16t, lastCol) and owns columns
	// from 16t: mask = colMask << (16t - start), within colMask.
	MOVQ    R10, R11
	SHLQ    $5, R11
	MOVQ    amxKernel_lastCol(R9), R12
	MOVQ    amxKernel_colMask(R9), R13
	MOVQ    R11, AX
	CMPQ    AX, R12
	CMOVQGT R12, AX
	MOVQ    AX, js0-16(SP)
	MOVQ    R11, CX
	SUBQ    AX, CX
	MOVQ    R13, DX
	SHLQ    CX, DX
	ANDQ    R13, DX
	MOVQ    DX, mask0-32(SP)
	LEAQ    16(R11), BX
	CMPQ    BX, R12
	CMOVQGT R12, BX
	MOVQ    BX, js1-8(SP)
	LEAQ    16(R11), CX
	SUBQ    BX, CX
	MOVQ    R13, DX
	SHLQ    CX, DX
	ANDQ    R13, DX
	MOVQ    DX, mask1-24(SP)
	LEAQ    1(R10)(R10*1), CX
	CMPQ    CX, amxKernel_tiles(R9)
	SETLT   twoA-40(SP)

	MOVQ  amxKernel_kp(R9), SI
	IMULQ SI, AX
	ADDQ  amxKernel_a(R9), AX
	IMULQ SI, BX
	ADDQ  amxKernel_a(R9), BX
	MOVQ  amxKernel_w+0(R9), CX
	MOVQ  amxKernel_w+8(R9), DX
	MOVQ  $64, DI
	MOVQ  SI, R8
	SHRQ  $6, R8
	MOVBQZX twoA-40(SP), R11
	MOVQ  amxKernel_live+8(R9), R12
	TILEZERO(0)
	TILEZERO(1)
	TILEZERO(2)
	TILEZERO(3)

kloop:
	TILELOADD(4, rAX, rSI)
	TILELOADD(6, rCX, rDI)
	TDPBUSD(0, 4, 6)
	TESTQ R12, R12
	JZ    onlyB0
	TILELOADD(7, rDX, rDI)
	TDPBUSD(1, 4, 7)

onlyB0:
	TESTQ R11, R11
	JZ    nextk
	TILELOADD(5, rBX, rSI)
	TDPBUSD(2, 5, 6)
	TESTQ R12, R12
	JZ    nextk
	TDPBUSD(3, 5, 7)

nextk:
	ADDQ $64, AX
	ADDQ $64, BX
	ADDQ $1024, CX
	ADDQ $1024, DX
	DECQ R8
	JNZ  kloop

	// C(a, b) goes to scratch tile 2a+b.
	MOVQ amxKernel_scratch(R9), AX
	MOVQ $64, SI
	TILESTORED(0, rAX, rSI)
	ADDQ $1024, AX
	TILESTORED(1, rAX, rSI)
	ADDQ $1024, AX
	TILESTORED(2, rAX, rSI)
	ADDQ $1024, AX
	TILESTORED(3, rAX, rSI)

	XORQ R11, R11 // q = 2a+b

tile:
	MOVQ  R11, R12
	SHRQ  $1, R12 // a
	MOVQ  R11, R13
	ANDQ  $1, R13 // b
	TESTQ R12, R12
	JZ    haveA
	CMPB  twoA-40(SP), $0
	JEQ   nexttile

haveA:
	MOVQ  amxKernel_live(R9)(R13*8), BX // channels in tile b
	TESTQ BX, BX
	JZ    nexttile
	LEAQ  mask0-32(SP), DX
	MOVQ  (DX)(R12*8), DX
	KMOVW DX, K1
	MOVQ  BX, CX
	MOVQ  $1, R8
	SHLQ  CX, R8
	DECQ  R8
	KMOVW R8, K2                      // the live channels
	LEAQ  js0-16(SP), DX
	MOVQ  (DX)(R12*8), DX // the tile's first column
	MOVQ  R11, AX
	SHLQ  $10, AX
	ADDQ  amxKernel_scratch(R9), AX
	SHLQ  $4, R13 // the tile's first channel
	LOAD16
	CMPB  amxKernel_raw(R9), $0
	JNE   transpose

	// Row j of C(a, b) is column j of 16 channels, so the per-channel
	// operands are lane vectors, loaded under the live-channel mask.
	MOVQ          amxKernel_rowSum(R9), CX
	VMOVDQU32.Z   (CX)(R13*4), K2, Z16
	VPMULLD.BCST  amxKernel_xZero(R9), Z16, Z16 // XZero·RowSum[i], wrapping
	MOVQ          amxKernel_wScale(R9), CX
	VMOVUPS.Z     (CX)(R13*4), K2, Z17
	VMULPS.BCST   amxKernel_xScale(R9), Z17, Z17 // WScale[i]·XScale
	MOVQ          amxKernel_bias(R9), CX
	VMOVUPS.Z     (CX)(R13*4), K2, Z18
	REQUANT(Z0)
	REQUANT(Z1)
	REQUANT(Z2)
	REQUANT(Z3)
	REQUANT(Z4)
	REQUANT(Z5)
	REQUANT(Z6)
	REQUANT(Z7)
	REQUANT(Z8)
	REQUANT(Z9)
	REQUANT(Z10)
	REQUANT(Z11)
	REQUANT(Z12)
	REQUANT(Z13)
	REQUANT(Z14)
	REQUANT(Z15)

	// The post-ops, in Epilogue order, each rounded on its own.
	CMPB      amxKernel_affine(R9), $0
	JEQ       transpose
	MOVQ      amxKernel_postScale(R9), CX
	VMOVUPS.Z (CX)(R13*4), K2, Z19
	MOVQ      amxKernel_postShift(R9), CX
	VMOVUPS.Z (CX)(R13*4), K2, Z20
	AFFINE(Z0)
	AFFINE(Z1)
	AFFINE(Z2)
	AFFINE(Z3)
	AFFINE(Z4)
	AFFINE(Z5)
	AFFINE(Z6)
	AFFINE(Z7)
	AFFINE(Z8)
	AFFINE(Z9)
	AFFINE(Z10)
	AFFINE(Z11)
	AFFINE(Z12)
	AFFINE(Z13)
	AFFINE(Z14)
	AFFINE(Z15)

transpose:
	TRANSPOSE16

	// Row r is now channel 16b+r over the tile's columns, its output at
	// element DI = (16b+r)·ldc + the first column. The skip's load and
	// add run under K3 (no lane when there is none, or when raw) and the
	// ReLU's VMAXPS under K4 (no lane without it), so every row takes one
	// branch-free path.
	MOVQ   R13, DI
	IMULQ  amxKernel_ldc(R9), DI
	ADDQ   DX, DI
	MOVQ   amxKernel_ldc(R9), SI
	MOVQ   amxKernel_c(R9), R12
	VPXORD Z31, Z31, Z31
	KXORW  K3, K3, K3
	LEAQ   amxKernel_cfg(R9), R8 // no skip: K3 reads no lane, of memory no store touches
	XORQ   CX, CX
	MOVQ   amxKernel_skip(R9), R13
	TESTQ  R13, R13
	JZ     relumask
	LEAQ   (R13)(DI*4), R8 // the skip row
	LEAQ   (SI*4), CX
	KMOVW  K1, K3

relumask:
	KXORW  K4, K4, K4
	CMPB   amxKernel_relu(R9), $0
	JEQ    rows
	KXNORW K4, K4, K4

rows:
	FINISH(Z0)
	MORE(1)
	FINISH(Z1)
	MORE(2)
	FINISH(Z2)
	MORE(3)
	FINISH(Z3)
	MORE(4)
	FINISH(Z4)
	MORE(5)
	FINISH(Z5)
	MORE(6)
	FINISH(Z6)
	MORE(7)
	FINISH(Z7)
	MORE(8)
	FINISH(Z8)
	MORE(9)
	FINISH(Z9)
	MORE(10)
	FINISH(Z10)
	MORE(11)
	FINISH(Z11)
	MORE(12)
	FINISH(Z12)
	MORE(13)
	FINISH(Z13)
	MORE(14)
	FINISH(Z14)
	MORE(15)
	FINISH(Z15)

nexttile:
	INCQ R11
	CMPQ R11, $4
	JLT  tile
	INCQ R10
	JMP  pair

done:
	TILERELEASE
	VZEROUPPER
	RET
