//go:build amd64 && !noasm

#include "textflag.h"

// Twelve independent accumulators cover the FMA units' latency × width
// on every core this runs on; no loads, so the loop measures the units.
#define FMAS(x, y, r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11) \
	VFMADD231PS x, y, r0 \
	VFMADD231PS x, y, r1 \
	VFMADD231PS x, y, r2 \
	VFMADD231PS x, y, r3 \
	VFMADD231PS x, y, r4 \
	VFMADD231PS x, y, r5 \
	VFMADD231PS x, y, r6 \
	VFMADD231PS x, y, r7 \
	VFMADD231PS x, y, r8 \
	VFMADD231PS x, y, r9 \
	VFMADD231PS x, y, r10 \
	VFMADD231PS x, y, r11

// func fmaLoopZMM(iters int)
TEXT ·fmaLoopZMM(SB), NOSPLIT, $0-8
	MOVQ iters+0(FP), CX
loopz:
	FMAS(Z12, Z13, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11)
	DECQ CX
	JNZ  loopz
	VZEROUPPER
	RET

// func fmaLoopYMM(iters int)
TEXT ·fmaLoopYMM(SB), NOSPLIT, $0-8
	MOVQ iters+0(FP), CX
loopy:
	FMAS(Y12, Y13, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	DECQ CX
	JNZ  loopy
	VZEROUPPER
	RET
