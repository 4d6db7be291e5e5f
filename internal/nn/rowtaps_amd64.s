#include "textflag.h"

// func rowTapsSSE(acc, r, w []float32)
//
// Eight columns per iteration while at least eight remain, then four.
// Per tap k the weight w[k] is broadcast and each lane does
// s = s + w[k]*r[x+k], in k order.
TEXT ·rowTapsSSE(SB), NOSPLIT, $0-72
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ r_base+24(FP), SI
	MOVQ w_base+48(FP), R8
	MOVQ w_len+56(FP), R9

wide:
	CMPQ CX, $8
	JLT  narrow
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	XORQ BX, BX

widetap:
	MOVSS  (R8)(BX*4), X2
	SHUFPS $0x00, X2, X2
	MOVUPS (SI)(BX*4), X3
	MOVUPS 16(SI)(BX*4), X4
	MULPS  X2, X3
	MULPS  X2, X4
	ADDPS  X3, X0
	ADDPS  X4, X1
	INCQ   BX
	CMPQ   BX, R9
	JLT    widetap
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   $32, DI
	ADDQ   $32, SI
	SUBQ   $8, CX
	JMP    wide

narrow:
	CMPQ CX, $4
	JLT  done
	MOVUPS (DI), X0
	XORQ BX, BX

narrowtap:
	MOVSS  (R8)(BX*4), X2
	SHUFPS $0x00, X2, X2
	MOVUPS (SI)(BX*4), X3
	MULPS  X2, X3
	ADDPS  X3, X0
	INCQ   BX
	CMPQ   BX, R9
	JLT    narrowtap
	MOVUPS X0, (DI)

done:
	RET
