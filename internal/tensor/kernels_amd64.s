#include "textflag.h"

// func axpy4SSE(dst, a0, a1, a2, a3 []float32, s0, s1, s2, s3 float32)
//
// Per lane: d = (((d + s0*a0) + s1*a1) + s2*a2) + s3*a3, one rounding per
// MULPS/ADDPS, left to right like the Go expression.
TEXT ·axpy4SSE(SB), NOSPLIT, $0-136
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  a0_base+24(FP), R8
	MOVQ  a1_base+48(FP), R9
	MOVQ  a2_base+72(FP), R10
	MOVQ  a3_base+96(FP), R11
	MOVSS s0+120(FP), X0
	SHUFPS $0x00, X0, X0
	MOVSS s1+124(FP), X1
	SHUFPS $0x00, X1, X1
	MOVSS s2+128(FP), X2
	SHUFPS $0x00, X2, X2
	MOVSS s3+132(FP), X3
	SHUFPS $0x00, X3, X3
	SHRQ  $2, CX
	JZ    axpy4done
	XORQ  AX, AX

axpy4loop:
	MOVUPS (DI)(AX*1), X4
	MOVUPS (R8)(AX*1), X5
	MULPS  X0, X5
	ADDPS  X5, X4
	MOVUPS (R9)(AX*1), X6
	MULPS  X1, X6
	ADDPS  X6, X4
	MOVUPS (R10)(AX*1), X5
	MULPS  X2, X5
	ADDPS  X5, X4
	MOVUPS (R11)(AX*1), X6
	MULPS  X3, X6
	ADDPS  X6, X4
	MOVUPS X4, (DI)(AX*1)
	ADDQ   $16, AX
	DECQ   CX
	JNZ    axpy4loop

axpy4done:
	RET

// func dot4SSE(a, b0, b1, b2, b3 []float32, acc *[4][4]float32)
//
// Register Xr holds row r's accumulators s_r0..s_r3 in lanes 0..3; lane j
// takes a[i+j]*b_r[i+j] for i = 0, 4, 8, … exactly as dot4Go's s_rj does.
TEXT ·dot4SSE(SB), NOSPLIT, $0-128
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	MOVQ  b0_base+24(FP), R8
	MOVQ  b1_base+48(FP), R9
	MOVQ  b2_base+72(FP), R10
	MOVQ  b3_base+96(FP), R11
	MOVQ  acc+120(FP), DI
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	SHRQ  $2, CX
	JZ    dot4store
	XORQ  AX, AX

dot4loop:
	MOVUPS (SI)(AX*1), X4
	MOVUPS (R8)(AX*1), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVUPS (R9)(AX*1), X6
	MULPS  X4, X6
	ADDPS  X6, X1
	MOVUPS (R10)(AX*1), X5
	MULPS  X4, X5
	ADDPS  X5, X2
	MOVUPS (R11)(AX*1), X6
	MULPS  X4, X6
	ADDPS  X6, X3
	ADDQ   $16, AX
	DECQ   CX
	JNZ    dot4loop

dot4store:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	RET
