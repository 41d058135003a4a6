#include "textflag.h"

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID leaf 1 reports OSXSAVE and AVX, XCR0 says the OS
// saves XMM and YMM state, and leaf 7 reports AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) | AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX // XCR0: SSE (bit 1) | AVX (bit 2) state enabled
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $5, BX // AVX2
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func convRowAVX2(out, band *float32, taps *tap, ntaps, n int, bias float32)
//
// A tap is {off int; w float32}: 16 bytes, off at 0, w at 8. One YMM register
// is one 8-column tile of the Go kernel. VMULPS then VADDPS, never FMA: a
// fused multiply-add rounds once where the Go tile rounds twice, and every
// golden pins the twice-rounded bits.
//
// DI out, SI band, DX taps, CX ntaps, R8 n, R9 ox, Y14 bias;
// per block: R13 = &band[ox], R10 tap cursor, R11 taps left, R12 = &band[off+ox].
TEXT ·convRowAVX2(SB), NOSPLIT, $0-44
	MOVQ         out+0(FP), DI
	MOVQ         band+8(FP), SI
	MOVQ         taps+16(FP), DX
	MOVQ         ntaps+24(FP), CX
	MOVQ         n+32(FP), R8
	VBROADCASTSS bias+40(FP), Y14
	XORQ         R9, R9

	// 32 columns a block: four independent accumulators per tap hide the
	// 4-cycle add latency.
loop32:
	LEAQ   32(R9), AX
	CMPQ   AX, R8
	JGT    loop8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	LEAQ   (SI)(R9*4), R13
	MOVQ   DX, R10
	MOVQ   CX, R11

tap32:
	MOVQ         (R10), R12
	VBROADCASTSS 8(R10), Y4
	LEAQ         (R13)(R12*4), R12
	VMULPS       (R12), Y4, Y5
	VMULPS       32(R12), Y4, Y6
	VMULPS       64(R12), Y4, Y7
	VMULPS       96(R12), Y4, Y8
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y8, Y3, Y3
	ADDQ         $16, R10
	DECQ         R11
	JNZ          tap32

	VADDPS  Y14, Y0, Y0
	VADDPS  Y14, Y1, Y1
	VADDPS  Y14, Y2, Y2
	VADDPS  Y14, Y3, Y3
	VMOVUPS Y0, (DI)(R9*4)
	VMOVUPS Y1, 32(DI)(R9*4)
	VMOVUPS Y2, 64(DI)(R9*4)
	VMOVUPS Y3, 96(DI)(R9*4)
	ADDQ    $32, R9
	JMP     loop32

	// 8 columns a block; a last partial block is computed as the full tile
	// ending at column n, recomputing up to 7 columns to the same bits.
loop8:
	LEAQ 8(R9), AX
	CMPQ AX, R8
	JLE  tile8
	CMPQ R9, R8
	JGE  done
	LEAQ -8(R8), R9

tile8:
	VXORPS Y0, Y0, Y0
	LEAQ   (SI)(R9*4), R13
	MOVQ   DX, R10
	MOVQ   CX, R11

tap8:
	MOVQ         (R10), R12
	VBROADCASTSS 8(R10), Y4
	VMULPS       (R13)(R12*4), Y4, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         $16, R10
	DECQ         R11
	JNZ          tap8

	VADDPS  Y14, Y0, Y0
	VMOVUPS Y0, (DI)(R9*4)
	ADDQ    $8, R9
	JMP     loop8

done:
	VZEROUPPER
	RET

// func gather2AVX2(dst, src *float32, n int)
//
// dst[j] = src[2j] for j < n; n is a multiple of 8 and all 2n source floats
// are readable. Per 8 outputs: VSHUFPS $0x88 keeps the even floats of two
// loads but lane by lane — (s0 s2 s8 s10 | s4 s6 s12 s14) — and VPERMPD $0xD8
// swaps the middle quadwords back into order. Moves only: no bit changes.
TEXT ·gather2AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	JZ   gdone

gloop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VSHUFPS $0x88, Y1, Y0, Y0
	VPERMPD $0xD8, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $64, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     gloop
	VZEROUPPER

gdone:
	RET
