//go:build amd64 && !noasm

#include "textflag.h"

// func hwcRunAVX512(dst, src *uint8, idx *[8]int64, c, run, stride int)
//
// transposeRun on AVX-512 for run ≥ 8 and a stride of 1 or 2: run
// pixels, stride bytes apart from src in each of c channels (idx holds
// 0, plane, …, 7·plane, the channels' distances), written to dst as run
// pixels of c bytes. Per block of 8 pixels and 64 channels:
//
//   - eight VPGATHERQQ load, for 8 channels each, the 8 pixels of a
//     channel as one qword (stride 2: two gathers, the pixels' even and
//     odd-offset bytes, compacted by VPSHUFB and interleaved);
//   - a VPSHUFB and a VPERMW turn each register's 8 channels × 8 pixels
//     into 8 pixels × 8 channels, qword p holding pixel p's channels;
//   - an 8×8 qword transpose of the eight registers leaves register p
//     holding pixel p's 64 channels, stored with one write.
//
// The last block ends at the last pixel, rewriting some of its
// predecessor's bytes with the same values. No byte past the last pixel
// of a channel is read.
//
// Registers: DI dst, SI src, CX c, DX run, BX stride, R13 8·plane, R8
// the block's first pixel, R10 its source, R11 its destination, R12 the
// channel chunk; Z30 the gather index, Z26-Z29 the byte tables.

// G1(z) gathers 8 channels' 8 pixels at stride 1 into z.
#define G1(z) \
	KXNORW     K1, K1, K1; \
	VPGATHERQQ (R10)(Z30*1), K1, z; \
	ADDQ       R13, R10

// G2(z) is G1 at stride 2: the even bytes of the qword at the block
// (pixels 0-3) and the odd bytes of the one 7 bytes on (pixels 4-7).
#define G2(z) \
	KXNORW      K1, K1, K1; \
	VPGATHERQQ  (R10)(Z30*1), K1, z; \
	KXNORW      K1, K1, K1; \
	VPGATHERQQ  7(R10)(Z30*1), K1, Z31; \
	VPSHUFB     Z26, z, z; \
	VPSHUFB     Z27, Z31, Z31; \
	VPUNPCKLDQ  Z31, z, z; \
	ADDQ        R13, R10

// PX(z) turns z's 8 channels × 8 pixels into 8 pixels × 8 channels.
#define PX(z) \
	VPSHUFB Z28, z, z; \
	VPERMW  z, Z29, z

TEXT ·hwcRunAVX512(SB), NOSPLIT, $0-48
	MOVQ      dst+0(FP), DI
	MOVQ      src+8(FP), SI
	MOVQ      idx+16(FP), AX
	VMOVDQU64 (AX), Z30
	MOVQ      8(AX), R13
	SHLQ      $3, R13
	MOVQ      c+24(FP), CX
	MOVQ      run+32(FP), DX
	MOVQ      stride+40(FP), BX
	VMOVDQU64 hwcEven<>(SB), Z26
	VMOVDQU64 hwcOdd<>(SB), Z27
	VMOVDQU64 hwcShuf<>(SB), Z28
	VMOVDQU64 hwcPerm<>(SB), Z29
	XORQ      R8, R8

block:
	LEAQ    -8(DX), R9
	CMPQ    R8, R9
	CMOVQGT R9, R8
	MOVQ    R8, R10
	IMULQ   BX, R10
	ADDQ    SI, R10
	MOVQ    R8, R11
	IMULQ   CX, R11
	ADDQ    DI, R11
	XORQ    R12, R12

chunk:
	CMPQ BX, $1
	JNE  stride2
	G1(Z0)
	G1(Z1)
	G1(Z2)
	G1(Z3)
	G1(Z4)
	G1(Z5)
	G1(Z6)
	G1(Z7)
	JMP  pixels

stride2:
	G2(Z0)
	G2(Z1)
	G2(Z2)
	G2(Z3)
	G2(Z4)
	G2(Z5)
	G2(Z6)
	G2(Z7)

pixels:
	PX(Z0)
	PX(Z1)
	PX(Z2)
	PX(Z3)
	PX(Z4)
	PX(Z5)
	PX(Z6)
	PX(Z7)

	// Zg qword p is pixel p's channels 8g..8g+7: transpose the qwords.
	VPUNPCKLQDQ Z1, Z0, Z8
	VPUNPCKHQDQ Z1, Z0, Z9
	VPUNPCKLQDQ Z3, Z2, Z10
	VPUNPCKHQDQ Z3, Z2, Z11
	VPUNPCKLQDQ Z5, Z4, Z12
	VPUNPCKHQDQ Z5, Z4, Z13
	VPUNPCKLQDQ Z7, Z6, Z14
	VPUNPCKHQDQ Z7, Z6, Z15
	VSHUFI64X2  $0x44, Z10, Z8, Z16
	VSHUFI64X2  $0xEE, Z10, Z8, Z17
	VSHUFI64X2  $0x44, Z14, Z12, Z18
	VSHUFI64X2  $0xEE, Z14, Z12, Z19
	VSHUFI64X2  $0x44, Z11, Z9, Z20
	VSHUFI64X2  $0xEE, Z11, Z9, Z21
	VSHUFI64X2  $0x44, Z15, Z13, Z22
	VSHUFI64X2  $0xEE, Z15, Z13, Z23
	VSHUFI64X2  $0x88, Z18, Z16, Z0
	VSHUFI64X2  $0xDD, Z18, Z16, Z2
	VSHUFI64X2  $0x88, Z19, Z17, Z4
	VSHUFI64X2  $0xDD, Z19, Z17, Z6
	VSHUFI64X2  $0x88, Z22, Z20, Z1
	VSHUFI64X2  $0xDD, Z22, Z20, Z3
	VSHUFI64X2  $0x88, Z23, Z21, Z5
	VSHUFI64X2  $0xDD, Z23, Z21, Z7

	MOVQ      R11, AX
	VMOVDQU64 Z0, (AX)
	ADDQ      CX, AX
	VMOVDQU64 Z1, (AX)
	ADDQ      CX, AX
	VMOVDQU64 Z2, (AX)
	ADDQ      CX, AX
	VMOVDQU64 Z3, (AX)
	ADDQ      CX, AX
	VMOVDQU64 Z4, (AX)
	ADDQ      CX, AX
	VMOVDQU64 Z5, (AX)
	ADDQ      CX, AX
	VMOVDQU64 Z6, (AX)
	ADDQ      CX, AX
	VMOVDQU64 Z7, (AX)

	ADDQ $64, R11
	ADDQ $64, R12
	CMPQ R12, CX
	JLT  chunk

	ADDQ $8, R8
	CMPQ R8, DX
	JLT  block

	VZEROUPPER
	RET

// hwcEven moves the even bytes of each qword of a lane to the lane's
// first dwords (qword 0's to dword 0, qword 1's to dword 1); hwcOdd the
// odd bytes likewise.
DATA hwcEven<>+0(SB)/8, $0x0e0c0a0806040200
DATA hwcEven<>+8(SB)/8, $0x0e0c0a0806040200
DATA hwcEven<>+16(SB)/8, $0x0e0c0a0806040200
DATA hwcEven<>+24(SB)/8, $0x0e0c0a0806040200
DATA hwcEven<>+32(SB)/8, $0x0e0c0a0806040200
DATA hwcEven<>+40(SB)/8, $0x0e0c0a0806040200
DATA hwcEven<>+48(SB)/8, $0x0e0c0a0806040200
DATA hwcEven<>+56(SB)/8, $0x0e0c0a0806040200
GLOBL hwcEven<>(SB), RODATA|NOPTR, $64

DATA hwcOdd<>+0(SB)/8, $0x0f0d0b0907050301
DATA hwcOdd<>+8(SB)/8, $0x0f0d0b0907050301
DATA hwcOdd<>+16(SB)/8, $0x0f0d0b0907050301
DATA hwcOdd<>+24(SB)/8, $0x0f0d0b0907050301
DATA hwcOdd<>+32(SB)/8, $0x0f0d0b0907050301
DATA hwcOdd<>+40(SB)/8, $0x0f0d0b0907050301
DATA hwcOdd<>+48(SB)/8, $0x0f0d0b0907050301
DATA hwcOdd<>+56(SB)/8, $0x0f0d0b0907050301
GLOBL hwcOdd<>(SB), RODATA|NOPTR, $64

// hwcShuf interleaves a lane's two channels pixel by pixel: byte 2p is
// pixel p of the first, byte 2p+1 pixel p of the second.
DATA hwcShuf<>+0(SB)/8, $0x0b030a0209010800
DATA hwcShuf<>+8(SB)/8, $0x0f070e060d050c04
DATA hwcShuf<>+16(SB)/8, $0x0b030a0209010800
DATA hwcShuf<>+24(SB)/8, $0x0f070e060d050c04
DATA hwcShuf<>+32(SB)/8, $0x0b030a0209010800
DATA hwcShuf<>+40(SB)/8, $0x0f070e060d050c04
DATA hwcShuf<>+48(SB)/8, $0x0b030a0209010800
DATA hwcShuf<>+56(SB)/8, $0x0f070e060d050c04
GLOBL hwcShuf<>(SB), RODATA|NOPTR, $64

// hwcPerm gathers pixel p's word from each lane into qword p: word
// 4p+l is word 8l+p.
DATA hwcPerm<>+0(SB)/8, $0x0018001000080000
DATA hwcPerm<>+8(SB)/8, $0x0019001100090001
DATA hwcPerm<>+16(SB)/8, $0x001a0012000a0002
DATA hwcPerm<>+24(SB)/8, $0x001b0013000b0003
DATA hwcPerm<>+32(SB)/8, $0x001c0014000c0004
DATA hwcPerm<>+40(SB)/8, $0x001d0015000d0005
DATA hwcPerm<>+48(SB)/8, $0x001e0016000e0006
DATA hwcPerm<>+56(SB)/8, $0x001f0017000f0007
GLOBL hwcPerm<>(SB), RODATA|NOPTR, $64
