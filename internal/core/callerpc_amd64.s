#include "textflag.h"

// func frameRet(hops int) uintptr
//
// frameRet follows the saved frame-pointer chain hops frames up from
// its caller's frame and returns the return address stored in the
// frame it reaches, or 0 if the chain ends first. It has no frame of
// its own, so BP still holds the caller's frame pointer on entry:
// 0(BP) is the caller's caller's BP and 8(BP) the caller's return
// address.
TEXT ·frameRet(SB), NOSPLIT|NOFRAME, $0-16
	MOVQ	hops+0(FP), CX
	MOVQ	BP, AX
loop:
	TESTQ	AX, AX
	JZ	done
	TESTQ	CX, CX
	JZ	found
	MOVQ	0(AX), AX
	DECQ	CX
	JMP	loop
found:
	MOVQ	8(AX), AX
done:
	MOVQ	AX, ret+8(FP)
	RET
