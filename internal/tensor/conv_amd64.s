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

// func convRowAVX2(out, band *float32, taps *tap, ntaps, n int, bias float32, mask uint32)
//
// A tap is {off int; w float32}: 16 bytes, off at 0, w at 8. One YMM register
// is one 8-column tile of the Go kernel. VMULPS then VADDPS, never FMA: a
// fused multiply-add rounds once where the Go tile rounds twice, and every
// golden pins the twice-rounded bits. Each stored tile is first ANDed with
// the mask: all ones stores acc+bias, 0x7fffffff its magnitude.
//
// DI out, SI band, DX taps, CX ntaps, R8 n, R9 ox, Y14 bias, Y15 mask;
// per block: R13 = &band[ox], R10 tap cursor, R11 taps left, R12 = &band[off+ox].
TEXT ·convRowAVX2(SB), NOSPLIT, $0-48
	MOVQ         out+0(FP), DI
	MOVQ         band+8(FP), SI
	MOVQ         taps+16(FP), DX
	MOVQ         ntaps+24(FP), CX
	MOVQ         n+32(FP), R8
	VBROADCASTSS bias+40(FP), Y14
	VBROADCASTSS mask+44(FP), Y15
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
	VANDPS  Y15, Y0, Y0
	VANDPS  Y15, Y1, Y1
	VANDPS  Y15, Y2, Y2
	VANDPS  Y15, Y3, Y3
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
	VANDPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)(R9*4)
	ADDQ    $8, R9
	JMP     loop8

done:
	VZEROUPPER
	RET

// func convRow2AVX2(out0, out1, band *float32, taps *tap, ntaps, n int, bias0, bias1 float32, mask uint32)
//
// convRowAVX2's 32-column blocks for two output channels whose taps share
// their offsets: a tap is {off; w0; w1} (off at 0, the weights at 8 and 12).
// Per tap the four band loads feed both channels — two broadcasts, eight
// VMULPS, eight VADDPS — so each channel's chain, operand order included, is
// the one convRowAVX2 computes for it. n ≥ 32; a last partial block is the
// block ending at column n, recomputing up to 31 columns to the same bits.
// All 16 YMM registers are busy: biases and mask are reloaded per store.
//
// DI out0, BX out1, SI band, DX taps, CX ntaps, R8 n, R9 ox; per block: R13
// = &band[ox], R10 tap cursor, R11 taps left, R12 = &band[off+ox]. Y0–Y3
// channel 0's accumulators, Y4–Y7 channel 1's, Y8–Y11 the band, Y12/Y13 the
// weights, Y14/Y15 products.
TEXT ·convRow2AVX2(SB), NOSPLIT, $0-60
	MOVQ out0+0(FP), DI
	MOVQ out1+8(FP), BX
	MOVQ band+16(FP), SI
	MOVQ taps+24(FP), DX
	MOVQ ntaps+32(FP), CX
	MOVQ n+40(FP), R8
	XORQ R9, R9

ploop:
	LEAQ 32(R9), AX
	CMPQ AX, R8
	JLE  pblock
	CMPQ R9, R8
	JGE  pdone
	LEAQ -32(R8), R9

pblock:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	LEAQ   (SI)(R9*4), R13
	MOVQ   DX, R10
	MOVQ   CX, R11

ptap:
	MOVQ         (R10), R12
	VBROADCASTSS 8(R10), Y12
	VBROADCASTSS 12(R10), Y13
	LEAQ         (R13)(R12*4), R12
	VMOVUPS      (R12), Y8
	VMOVUPS      32(R12), Y9
	VMOVUPS      64(R12), Y10
	VMOVUPS      96(R12), Y11
	VMULPS       Y8, Y12, Y14
	VMULPS       Y8, Y13, Y15
	VADDPS       Y14, Y0, Y0
	VADDPS       Y15, Y4, Y4
	VMULPS       Y9, Y12, Y14
	VMULPS       Y9, Y13, Y15
	VADDPS       Y14, Y1, Y1
	VADDPS       Y15, Y5, Y5
	VMULPS       Y10, Y12, Y14
	VMULPS       Y10, Y13, Y15
	VADDPS       Y14, Y2, Y2
	VADDPS       Y15, Y6, Y6
	VMULPS       Y11, Y12, Y14
	VMULPS       Y11, Y13, Y15
	VADDPS       Y14, Y3, Y3
	VADDPS       Y15, Y7, Y7
	ADDQ         $16, R10
	DECQ         R11
	JNZ          ptap

	VBROADCASTSS bias0+48(FP), Y12
	VBROADCASTSS bias1+52(FP), Y13
	VBROADCASTSS mask+56(FP), Y14
	VADDPS       Y12, Y0, Y0
	VADDPS       Y12, Y1, Y1
	VADDPS       Y12, Y2, Y2
	VADDPS       Y12, Y3, Y3
	VADDPS       Y13, Y4, Y4
	VADDPS       Y13, Y5, Y5
	VADDPS       Y13, Y6, Y6
	VADDPS       Y13, Y7, Y7
	VANDPS       Y14, Y0, Y0
	VANDPS       Y14, Y1, Y1
	VANDPS       Y14, Y2, Y2
	VANDPS       Y14, Y3, Y3
	VANDPS       Y14, Y4, Y4
	VANDPS       Y14, Y5, Y5
	VANDPS       Y14, Y6, Y6
	VANDPS       Y14, Y7, Y7
	VMOVUPS      Y0, (DI)(R9*4)
	VMOVUPS      Y1, 32(DI)(R9*4)
	VMOVUPS      Y2, 64(DI)(R9*4)
	VMOVUPS      Y3, 96(DI)(R9*4)
	VMOVUPS      Y4, (BX)(R9*4)
	VMOVUPS      Y5, 32(BX)(R9*4)
	VMOVUPS      Y6, 64(BX)(R9*4)
	VMOVUPS      Y7, 96(BX)(R9*4)
	ADDQ         $32, R9
	JMP          ploop

pdone:
	VZEROUPPER
	RET

// func deinterleave2AVX2(ev, od, src *float32, n int)
//
// ev[j] = src[2j] and od[j] = src[2j+1] for j < n; n is a multiple of 8 and
// all 2n source floats are readable. Per 16 source floats: VSHUFPS $0x88
// keeps the even floats of two loads and $0xDD the odd ones, lane by lane —
// (s0 s2 s8 s10 | s4 s6 s12 s14) — and VPERMPD $0xD8 swaps the middle
// quadwords back into order. Moves only: no bit changes.
TEXT ·deinterleave2AVX2(SB), NOSPLIT, $0-32
	MOVQ ev+0(FP), DI
	MOVQ od+8(FP), BX
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX
	SHRQ $3, CX
	JZ   ddone

dloop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VSHUFPS $0x88, Y1, Y0, Y2
	VSHUFPS $0xDD, Y1, Y0, Y3
	VPERMPD $0xD8, Y2, Y2
	VPERMPD $0xD8, Y3, Y3
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, (BX)
	ADDQ    $64, SI
	ADDQ    $32, DI
	ADDQ    $32, BX
	DECQ    CX
	JNZ     dloop
	VZEROUPPER

ddone:
	RET

// func wgradAVX2(acc, dyT, x *float32, offs *int, ho, wo, wp int)
//
// Eight weight rows × eight output channels of a stride-1 convolution's
// weight gradient: acc[j·8+l] = Σ_p dyT[p·8+l]·x[offs[j] + oy·wp + ox] over
// p = oy·wo+ox ascending, from +0. The lanes are the output channels: per
// position one load of dyT[p], then per row one VBROADCASTSS of the input
// value, one VMULPS and one VADDPS into that row's accumulator — the
// MULSS/ADDSS pair MatMulABTInto issues per term, never an FMA. ho, wo ≥ 1;
// every x[offs[j] + (ho−1)·wp + wo−1] must be in bounds.
//
// DI dyT cursor (+32 a position), SI &x[oy·wp+ox], R8–R15 offs[0..7],
// AX columns left in the row, BX rows left, CX wo, DX bytes from the end of
// one output row's input to the start of the next; Y0–Y7 the rows'
// accumulators, Y8 dyT[p], Y9–Y15 products.
TEXT ·wgradAVX2(SB), NOSPLIT, $0-56
	MOVQ dyT+8(FP), DI
	MOVQ x+16(FP), SI
	MOVQ offs+24(FP), AX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ 32(AX), R12
	MOVQ 40(AX), R13
	MOVQ 48(AX), R14
	MOVQ 56(AX), R15
	MOVQ ho+32(FP), BX
	MOVQ wo+40(FP), CX
	MOVQ wp+48(FP), DX
	SUBQ CX, DX
	SHLQ $2, DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   CX, AX

wpos:
	VMOVUPS      (DI), Y8
	VBROADCASTSS (SI)(R8*4), Y9
	VBROADCASTSS (SI)(R9*4), Y10
	VBROADCASTSS (SI)(R10*4), Y11
	VBROADCASTSS (SI)(R11*4), Y12
	VMULPS       Y9, Y8, Y9
	VMULPS       Y10, Y8, Y10
	VMULPS       Y11, Y8, Y11
	VMULPS       Y12, Y8, Y12
	VADDPS       Y9, Y0, Y0
	VADDPS       Y10, Y1, Y1
	VADDPS       Y11, Y2, Y2
	VADDPS       Y12, Y3, Y3
	VBROADCASTSS (SI)(R12*4), Y13
	VBROADCASTSS (SI)(R13*4), Y14
	VBROADCASTSS (SI)(R14*4), Y15
	VBROADCASTSS (SI)(R15*4), Y9
	VMULPS       Y13, Y8, Y13
	VMULPS       Y14, Y8, Y14
	VMULPS       Y15, Y8, Y15
	VMULPS       Y9, Y8, Y9
	VADDPS       Y13, Y4, Y4
	VADDPS       Y14, Y5, Y5
	VADDPS       Y15, Y6, Y6
	VADDPS       Y9, Y7, Y7
	ADDQ         $32, DI
	ADDQ         $4, SI
	DECQ         AX
	JNZ          wpos
	ADDQ         DX, SI
	MOVQ         CX, AX
	DECQ         BX
	JNZ          wpos

	MOVQ    acc+0(FP), AX
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, 32(AX)
	VMOVUPS Y2, 64(AX)
	VMOVUPS Y3, 96(AX)
	VMOVUPS Y4, 128(AX)
	VMOVUPS Y5, 160(AX)
	VMOVUPS Y6, 192(AX)
	VMOVUPS Y7, 224(AX)
	VZEROUPPER
	RET
