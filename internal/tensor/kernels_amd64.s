//go:build amd64 && !race

#include "textflag.h"

// AVX2+FMA forms of the row kernels in kernels.go. Every kernel walks its
// rows in 8-lane YMM vectors and finishes the last n%8 elements with one
// VMASKMOVPS-masked vector, so there is no scalar tail and masked-off
// lanes never touch memory.
//
// Rounding: an axpyRows element is the chain of fused multiply-adds
// y = fma(c[T-1], x[T-1], ... fma(c[1], x[1], fma(c[0], x[0], y))), and an
// Axpy element is fma(alpha, x, y), in the main loop, the narrower loops
// and the masked tail alike, so a destination element does not depend on
// its position or on the slice's alignment. The dot kernels accumulate
// lane-wise and reduce the lanes in a fixed tree at the end, so their
// result depends only on n.

// tailMask holds eight all-ones dwords followed by eight zero dwords. The
// eight dwords starting at byte 32-4r enable exactly the first r lanes.
DATA tailMask<>+0x00(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x08(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x10(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x18(SB)/8, $0xffffffffffffffff
DATA tailMask<>+0x20(SB)/8, $0
DATA tailMask<>+0x28(SB)/8, $0
DATA tailMask<>+0x30(SB)/8, $0
DATA tailMask<>+0x38(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// LOADMASK sets mask to the lane mask for the rem (1..7) remaining
// elements. It negates rem and clobbers tmp.
#define LOADMASK(rem, tmp, mask) \
	NEGQ rem; \
	LEAQ tailMask<>+32(SB), tmp; \
	VMOVUPS (tmp)(rem*4), mask

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyFMA(alpha float32, x, y []float32)
TEXT ·axpyFMA(SB), NOSPLIT, $0-56
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI
	VBROADCASTSS alpha+0(FP), Y0
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-32, BX
	JZ   axpy8

axpy32:
	VMOVUPS     (DI)(AX*4), Y1
	VMOVUPS     32(DI)(AX*4), Y2
	VMOVUPS     64(DI)(AX*4), Y3
	VMOVUPS     96(DI)(AX*4), Y4
	VFMADD231PS (SI)(AX*4), Y0, Y1
	VFMADD231PS 32(SI)(AX*4), Y0, Y2
	VFMADD231PS 64(SI)(AX*4), Y0, Y3
	VFMADD231PS 96(SI)(AX*4), Y0, Y4
	VMOVUPS     Y1, (DI)(AX*4)
	VMOVUPS     Y2, 32(DI)(AX*4)
	VMOVUPS     Y3, 64(DI)(AX*4)
	VMOVUPS     Y4, 96(DI)(AX*4)
	ADDQ        $32, AX
	CMPQ        AX, BX
	JLT         axpy32

axpy8:
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JGE  axpyTail

axpy8Loop:
	VMOVUPS     (DI)(AX*4), Y1
	VFMADD231PS (SI)(AX*4), Y0, Y1
	VMOVUPS     Y1, (DI)(AX*4)
	ADDQ        $8, AX
	CMPQ        AX, BX
	JLT         axpy8Loop

axpyTail:
	SUBQ AX, CX
	JZ   axpyDone
	LOADMASK(CX, DX, Y5)
	VMASKMOVPS  (DI)(AX*4), Y5, Y1
	VMASKMOVPS  (SI)(AX*4), Y5, Y2
	VFMADD231PS Y2, Y0, Y1
	VMASKMOVPS  Y1, Y5, (DI)(AX*4)

axpyDone:
	VZEROUPPER
	RET

// func dotFMA(a, b []float32) float32
TEXT ·dotFMA(SB), NOSPLIT, $0-52
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-32, BX
	JZ     dot8

dot32:
	VMOVUPS     (SI)(AX*4), Y4
	VMOVUPS     32(SI)(AX*4), Y5
	VMOVUPS     64(SI)(AX*4), Y6
	VMOVUPS     96(SI)(AX*4), Y7
	VFMADD231PS (DI)(AX*4), Y4, Y0
	VFMADD231PS 32(DI)(AX*4), Y5, Y1
	VFMADD231PS 64(DI)(AX*4), Y6, Y2
	VFMADD231PS 96(DI)(AX*4), Y7, Y3
	ADDQ        $32, AX
	CMPQ        AX, BX
	JLT         dot32
	VADDPS      Y1, Y0, Y0
	VADDPS      Y3, Y2, Y2
	VADDPS      Y2, Y0, Y0

dot8:
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JGE  dotTail

dot8Loop:
	VMOVUPS     (SI)(AX*4), Y4
	VFMADD231PS (DI)(AX*4), Y4, Y0
	ADDQ        $8, AX
	CMPQ        AX, BX
	JLT         dot8Loop

dotTail:
	SUBQ AX, CX
	JZ   dotReduce
	LOADMASK(CX, DX, Y8)
	VMASKMOVPS  (SI)(AX*4), Y8, Y4
	VMASKMOVPS  (DI)(AX*4), Y8, Y5
	VFMADD231PS Y5, Y4, Y0

dotReduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VMOVHLPS     X0, X0, X1
	VADDPS       X1, X0, X0
	VMOVSHDUP    X0, X1
	VADDSS       X1, X0, X0
	VMOVSS       X0, ret+48(FP)
	VZEROUPPER
	RET

// func dot2FMA(a, b0, b1 []float32) (r0, r1 float32)
TEXT ·dot2FMA(SB), NOSPLIT, $0-80
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b0_base+24(FP), R8
	MOVQ   b1_base+48(FP), R9
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-16, BX
	JZ     dot2x8

dot2x16:
	VMOVUPS     (SI)(AX*4), Y4
	VMOVUPS     32(SI)(AX*4), Y5
	VFMADD231PS (R8)(AX*4), Y4, Y0
	VFMADD231PS 32(R8)(AX*4), Y5, Y1
	VFMADD231PS (R9)(AX*4), Y4, Y2
	VFMADD231PS 32(R9)(AX*4), Y5, Y3
	ADDQ        $16, AX
	CMPQ        AX, BX
	JLT         dot2x16
	VADDPS      Y1, Y0, Y0
	VADDPS      Y3, Y2, Y2

dot2x8:
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JGE  dot2Tail
	VMOVUPS     (SI)(AX*4), Y4
	VFMADD231PS (R8)(AX*4), Y4, Y0
	VFMADD231PS (R9)(AX*4), Y4, Y2
	ADDQ        $8, AX

dot2Tail:
	SUBQ AX, CX
	JZ   dot2Reduce
	LOADMASK(CX, DX, Y8)
	VMASKMOVPS  (SI)(AX*4), Y8, Y4
	VMASKMOVPS  (R8)(AX*4), Y8, Y5
	VFMADD231PS Y5, Y4, Y0
	VMASKMOVPS  (R9)(AX*4), Y8, Y5
	VFMADD231PS Y5, Y4, Y2

dot2Reduce:
	// [r0 lanes 0-3 | r0 lanes 4-7] + [r1 ...] -> X0 = (r0, r1, r0, r1) partials.
	VHADDPS      Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      X0, X0, X0
	VMOVSS       X0, r0+72(FP)
	VEXTRACTPS   $1, X0, r1+76(FP)
	VZEROUPPER
	RET

// func dot4FMA(a, b0, b1, b2, b3 []float32) (r0, r1, r2, r3 float32)
TEXT ·dot4FMA(SB), NOSPLIT, $0-136
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b0_base+24(FP), R8
	MOVQ   b1_base+48(FP), R9
	MOVQ   b2_base+72(FP), R10
	MOVQ   b3_base+96(FP), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-16, BX
	JZ     dot4x8

dot4x16:
	VMOVUPS     (SI)(AX*4), Y8
	VMOVUPS     32(SI)(AX*4), Y9
	VFMADD231PS (R8)(AX*4), Y8, Y0
	VFMADD231PS 32(R8)(AX*4), Y9, Y1
	VFMADD231PS (R9)(AX*4), Y8, Y2
	VFMADD231PS 32(R9)(AX*4), Y9, Y3
	VFMADD231PS (R10)(AX*4), Y8, Y4
	VFMADD231PS 32(R10)(AX*4), Y9, Y5
	VFMADD231PS (R11)(AX*4), Y8, Y6
	VFMADD231PS 32(R11)(AX*4), Y9, Y7
	ADDQ        $16, AX
	CMPQ        AX, BX
	JLT         dot4x16
	VADDPS      Y1, Y0, Y0
	VADDPS      Y3, Y2, Y2
	VADDPS      Y5, Y4, Y4
	VADDPS      Y7, Y6, Y6

dot4x8:
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JGE  dot4Tail
	VMOVUPS     (SI)(AX*4), Y8
	VFMADD231PS (R8)(AX*4), Y8, Y0
	VFMADD231PS (R9)(AX*4), Y8, Y2
	VFMADD231PS (R10)(AX*4), Y8, Y4
	VFMADD231PS (R11)(AX*4), Y8, Y6
	ADDQ        $8, AX

dot4Tail:
	SUBQ AX, CX
	JZ   dot4Reduce
	LOADMASK(CX, DX, Y10)
	VMASKMOVPS  (SI)(AX*4), Y10, Y8
	VMASKMOVPS  (R8)(AX*4), Y10, Y9
	VFMADD231PS Y9, Y8, Y0
	VMASKMOVPS  (R9)(AX*4), Y10, Y9
	VFMADD231PS Y9, Y8, Y2
	VMASKMOVPS  (R10)(AX*4), Y10, Y9
	VFMADD231PS Y9, Y8, Y4
	VMASKMOVPS  (R11)(AX*4), Y10, Y9
	VFMADD231PS Y9, Y8, Y6

dot4Reduce:
	// Two rounds of pairwise horizontal adds leave (r0, r1, r2, r3) per
	// 128-bit half; adding the halves finishes the four sums.
	VHADDPS      Y2, Y0, Y0
	VHADDPS      Y6, Y4, Y4
	VHADDPS      Y4, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VMOVSS       X0, r0+120(FP)
	VEXTRACTPS   $1, X0, r1+124(FP)
	VEXTRACTPS   $2, X0, r2+128(FP)
	VEXTRACTPS   $3, X0, r3+132(FP)
	VZEROUPPER
	RET

// func axpyRowsFMA(y, c []float32, off []int, b []float32)
//
// y += Σ_t c[t]·b[off[t] : off[t]+len(y)]. The destination is held in
// registers across all T rows, 64 columns (eight YMM accumulators) at a
// time, then 32, then 8, then the masked tail, so y is loaded and stored
// once per call instead of once per row.
TEXT ·axpyRowsFMA(SB), NOSPLIT, $0-96
	MOVQ  y_base+0(FP), DI
	MOVQ  y_len+8(FP), CX
	MOVQ  c_base+24(FP), SI
	MOVQ  c_len+32(FP), R8
	MOVQ  off_base+48(FP), R9
	MOVQ  b_base+72(FP), R10
	XORQ  AX, AX
	TESTQ R8, R8
	JZ    rowsDone
	MOVQ  CX, BX
	ANDQ  $-64, BX

rows64:
	CMPQ    AX, BX
	JGE     rows32Setup
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMOVUPS 64(DI)(AX*4), Y2
	VMOVUPS 96(DI)(AX*4), Y3
	VMOVUPS 128(DI)(AX*4), Y4
	VMOVUPS 160(DI)(AX*4), Y5
	VMOVUPS 192(DI)(AX*4), Y6
	VMOVUPS 224(DI)(AX*4), Y7
	LEAQ    (R10)(AX*4), R11
	XORQ    DX, DX

rows64Coef:
	VBROADCASTSS (SI)(DX*4), Y8
	MOVQ         (R9)(DX*8), R12
	LEAQ         (R11)(R12*4), R13
	VFMADD231PS  (R13), Y8, Y0
	VFMADD231PS  32(R13), Y8, Y1
	VFMADD231PS  64(R13), Y8, Y2
	VFMADD231PS  96(R13), Y8, Y3
	VFMADD231PS  128(R13), Y8, Y4
	VFMADD231PS  160(R13), Y8, Y5
	VFMADD231PS  192(R13), Y8, Y6
	VFMADD231PS  224(R13), Y8, Y7
	INCQ         DX
	CMPQ         DX, R8
	JLT          rows64Coef
	VMOVUPS      Y0, (DI)(AX*4)
	VMOVUPS      Y1, 32(DI)(AX*4)
	VMOVUPS      Y2, 64(DI)(AX*4)
	VMOVUPS      Y3, 96(DI)(AX*4)
	VMOVUPS      Y4, 128(DI)(AX*4)
	VMOVUPS      Y5, 160(DI)(AX*4)
	VMOVUPS      Y6, 192(DI)(AX*4)
	VMOVUPS      Y7, 224(DI)(AX*4)
	ADDQ         $64, AX
	JMP          rows64

rows32Setup:
	MOVQ CX, BX
	ANDQ $-32, BX
	CMPQ AX, BX
	JGE  rows8Setup
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMOVUPS 64(DI)(AX*4), Y2
	VMOVUPS 96(DI)(AX*4), Y3
	LEAQ    (R10)(AX*4), R11
	XORQ    DX, DX

rows32Coef:
	VBROADCASTSS (SI)(DX*4), Y8
	MOVQ         (R9)(DX*8), R12
	LEAQ         (R11)(R12*4), R13
	VFMADD231PS  (R13), Y8, Y0
	VFMADD231PS  32(R13), Y8, Y1
	VFMADD231PS  64(R13), Y8, Y2
	VFMADD231PS  96(R13), Y8, Y3
	INCQ         DX
	CMPQ         DX, R8
	JLT          rows32Coef
	VMOVUPS      Y0, (DI)(AX*4)
	VMOVUPS      Y1, 32(DI)(AX*4)
	VMOVUPS      Y2, 64(DI)(AX*4)
	VMOVUPS      Y3, 96(DI)(AX*4)
	ADDQ         $32, AX

rows8Setup:
	MOVQ CX, BX
	ANDQ $-8, BX

rows8:
	CMPQ    AX, BX
	JGE     rowsTail
	VMOVUPS (DI)(AX*4), Y0
	LEAQ    (R10)(AX*4), R11
	XORQ    DX, DX

rows8Coef:
	VBROADCASTSS (SI)(DX*4), Y8
	MOVQ         (R9)(DX*8), R12
	VFMADD231PS  (R11)(R12*4), Y8, Y0
	INCQ         DX
	CMPQ         DX, R8
	JLT          rows8Coef
	VMOVUPS      Y0, (DI)(AX*4)
	ADDQ         $8, AX
	JMP          rows8

rowsTail:
	MOVQ CX, BX
	SUBQ AX, BX
	JZ   rowsDone
	LOADMASK(BX, R12, Y9)
	VMASKMOVPS (DI)(AX*4), Y9, Y0
	LEAQ       (R10)(AX*4), R11
	XORQ       DX, DX

rowsTailCoef:
	VBROADCASTSS (SI)(DX*4), Y8
	MOVQ         (R9)(DX*8), R12
	LEAQ         (R11)(R12*4), R13
	VMASKMOVPS   (R13), Y9, Y1
	VFMADD231PS  Y1, Y8, Y0
	INCQ         DX
	CMPQ         DX, R8
	JLT          rowsTailCoef
	VMASKMOVPS   Y0, Y9, (DI)(AX*4)

rowsDone:
	VZEROUPPER
	RET
