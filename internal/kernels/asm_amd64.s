//go:build !noasm

// SIMD bodies for the hottest inner loops, dispatched by
// dispatch_amd64.go. Every function here has a pure-Go twin in
// kernels.go / spmm.go that serves as its differential-test oracle;
// the contract (dispatch_test.go) is agreement within 1e-12 over the
// generator families. Two ISA tiers:
//
//   - AVX2+FMA: 4-lane f64, dword-indexed gathers (VGATHERDPD with a
//     VPCMPEQD-refreshed mask — the gather clobbers its mask register).
//   - AVX-512F: 8-lane f64, opmask gathers (KXNORW-refreshed). Only
//     the gather kernels and the widest block kernel get a 512-bit
//     variant: doubling the gather width doubles the irregular-access
//     throughput, while the k=4 block kernel's natural width IS one
//     YMM register and gains nothing from ZMM.
//
// Accumulator grouping differs from the scalar oracles (pairs of
// vector accumulators versus 8 named scalars) and products are fused
// (FMA rounds once where the oracle rounds twice), so results match
// the oracle to rounding, not bit-for-bit — exactly the tolerance the
// differential suite checks. Scalar tails use FMA too, for the same
// reason.
//
// Every TEXT body starts with PCALIGN $64, which raises the function's
// alignment to a cache line. Where the linker places a body then no
// longer moves its loops across line boundaries when unrelated code
// changes size: on short-row matrices (lap2d, 5 per row) the
// 32-byte-offset placement of csrGatherRangeAVX512 ran about 20%
// slower than the line-aligned one on an AVX-512 host.
// TestAsmBodiesCacheLineAligned checks the placement in the test
// binary.

#include "textflag.h"

// DeltaCSR bodies: delta-vec8-avx512 and delta-vec8-avx2, each for 8-
// and 16-bit deltas (one macro per tier, instantiated per width). The
// argument frame of every instance is
//
//   func(rowptr []int64, firstcol []int32, deltas []uintW, overflow []int32,
//        val, x, y []float64, lo, hi, oi int)
//
// and oi is the overflow cursor at row lo (DeltaCSR.OverflowOffsets).
// Per row: the first column is a scalar product, then 16-element steps
// and one 8-element step decode the delta stream in registers, gather
// x and FMA against the values, and a scalar-FMA tail finishes the
// row. A block's escape lanes (delta 0) do not leave the vector path.
//
// Register plan shared by both tiers:
//   R10 rowptr base   DI deltas base   BX overflow base   SI val base
//   R8  x base        R9 y base        CX row i           DX hi
//   R11 overflow cursor                R12 j              R13 row end
//   R14 step limit    AX column / scratch                 R15 scratch

// deltaEscLane<> holds lane k+16 in lane k: the VPERMI2D index of an
// escape lane's column base (indices 16..31 select the second table).
DATA deltaEscLane<>+0(SB)/4, $16
DATA deltaEscLane<>+4(SB)/4, $17
DATA deltaEscLane<>+8(SB)/4, $18
DATA deltaEscLane<>+12(SB)/4, $19
DATA deltaEscLane<>+16(SB)/4, $20
DATA deltaEscLane<>+20(SB)/4, $21
DATA deltaEscLane<>+24(SB)/4, $22
DATA deltaEscLane<>+28(SB)/4, $23
DATA deltaEscLane<>+32(SB)/4, $24
DATA deltaEscLane<>+36(SB)/4, $25
DATA deltaEscLane<>+40(SB)/4, $26
DATA deltaEscLane<>+44(SB)/4, $27
DATA deltaEscLane<>+48(SB)/4, $28
DATA deltaEscLane<>+52(SB)/4, $29
DATA deltaEscLane<>+56(SB)/4, $30
DATA deltaEscLane<>+60(SB)/4, $31
GLOBL deltaEscLane<>(SB), RODATA|NOPTR, $64

// DELTA_AVX512 is the 16-lane body. ZX zero-extends the block's deltas
// to dwords (VPMOVZXBD or VPMOVZXWD), SCALE is the delta size in
// bytes, TAILMOV the scalar zero-extending load.
//
// Decode of one block (lanes limited by K7: 16, or 8 in the 8-element
// step): Z3 = deltas, K1 = escape lanes. Four VALIGND shift+add steps
// turn Z3 into its inclusive prefix sum P (escapes add 0). Without
// escapes the columns are carry + P, where Z12 holds the previous
// column broadcast. With escapes, lane k's column is B_k + P_k, where
// B_k is ovf_e - P_e for the last escape e <= k and the carry when
// there is none: VPEXPANDD loads the block's overflow entries into the
// escape lanes, a prefix max over (escape ? k+16 : 0) finds e, and
// VPERMI2D picks B from {carry, ovf - P}. The cursor then advances by
// the popcount of K1. The next carry is lane 15 broadcast (VPERMD):
// in the 8-element step lanes 8..15 repeat lane 7's column.
//
// Vector registers: Z0/Z1 accumulators, X2 the scalar sum, Z3..Z6
// decode temporaries, Z7 columns, Z10/Z11 gathered x, Z12 carry, Z13
// zero, Z14 all 15s, Z15 deltaEscLane<>.
#define DELTA_AVX512(ZX, SCALE, TAILMOV) \
	MOVQ rowptr_base+0(FP), R10; \
	MOVQ deltas_base+48(FP), DI; \
	MOVQ overflow_base+72(FP), BX; \
	MOVQ val_base+96(FP), SI; \
	MOVQ x_base+120(FP), R8; \
	MOVQ y_base+144(FP), R9; \
	MOVQ lo+168(FP), CX; \
	MOVQ hi+176(FP), DX; \
	MOVQ oi+184(FP), R11; \
	VPXORQ Z13, Z13, Z13; \
	MOVL $15, AX; \
	VPBROADCASTD AX, Z14; \
	VMOVDQU32 deltaEscLane<>(SB), Z15; \
	CMPQ CX, DX; \
	JGE done; \
row: \
	MOVQ (R10)(CX*8), R12; \
	MOVQ 8(R10)(CX*8), R13; \
	CMPQ R12, R13; \
	JEQ empty; \
	MOVQ firstcol_base+24(FP), R15; \
	MOVL (R15)(CX*4), AX; \
	VMOVSD (R8)(AX*8), X2; \
	VMULSD (SI)(R12*8), X2, X2; \
	INCQ R12; \
	LEAQ 8(R12), R14; \
	CMPQ R14, R13; \
	JGT tailloop; \
	VPBROADCASTD AX, Z12; \
	VPXORQ Z0, Z0, Z0; \
	VPXORQ Z1, Z1, Z1; \
	LEAQ -16(R13), R14; \
blk16: \
	CMPQ R12, R14; \
	JGT chk8; \
	ZX (DI)(R12*SCALE), Z3; \
	KXNORW K7, K7, K7; \
	JMP decode; \
chk8: \
	LEAQ -8(R13), R14; \
	CMPQ R12, R14; \
	JGT tail; \
	ZX (DI)(R12*SCALE), Y3; \
	MOVL $0xff, AX; \
	KMOVW AX, K7; \
decode: \
	VPTESTNMD Z3, Z3, K7, K1; \
	VALIGND $15, Z13, Z3, Z4; \
	VPADDD Z4, Z3, Z3; \
	VALIGND $14, Z13, Z3, Z4; \
	VPADDD Z4, Z3, Z3; \
	VALIGND $12, Z13, Z3, Z4; \
	VPADDD Z4, Z3, Z3; \
	VALIGND $8, Z13, Z3, Z4; \
	VPADDD Z4, Z3, Z3; \
	KORTESTW K1, K1; \
	JNE escape; \
	VPADDD Z12, Z3, Z7; \
gather: \
	VPERMD Z7, Z14, Z12; \
	KXNORW K2, K2, K2; \
	VGATHERDPD (R8)(Y7*8), K2, Z10; \
	VFMADD231PD (SI)(R12*8), Z10, Z0; \
	LEAQ 16(R12), AX; \
	CMPQ AX, R13; \
	JGT step8; \
	VEXTRACTI64X4 $1, Z7, Y6; \
	KXNORW K3, K3, K3; \
	VGATHERDPD (R8)(Y6*8), K3, Z11; \
	VFMADD231PD 64(SI)(R12*8), Z11, Z1; \
	MOVQ AX, R12; \
	JMP blk16; \
step8: \
	ADDQ $8, R12; \
tail: \
	VMOVD X12, AX; \
tailloop: \
	CMPQ R12, R13; \
	JGE reduce; \
	TAILMOV (DI)(R12*SCALE), R15; \
	TESTL R15, R15; \
	JEQ tailesc; \
	ADDL R15, AX; \
tailfma: \
	VMOVSD (R8)(AX*8), X3; \
	VFMADD231SD (SI)(R12*8), X3, X2; \
	INCQ R12; \
	JMP tailloop; \
tailesc: \
	MOVL (BX)(R11*4), AX; \
	INCQ R11; \
	JMP tailfma; \
reduce: \
	MOVQ (R10)(CX*8), R15; \
	ADDQ $9, R15; \
	CMPQ R15, R13; \
	JGT store; \
	VADDPD Z1, Z0, Z0; \
	VEXTRACTF64X4 $1, Z0, Y1; \
	VADDPD Y1, Y0, Y0; \
	VEXTRACTF128 $1, Y0, X1; \
	VADDPD X1, X0, X0; \
	VHADDPD X0, X0, X0; \
	VADDSD X0, X2, X2; \
store: \
	VMOVSD X2, (R9)(CX*8); \
	JMP next; \
empty: \
	MOVQ $0, (R9)(CX*8); \
next: \
	INCQ CX; \
	CMPQ CX, DX; \
	JLT row; \
	JMP done; \
escape: \
	VPEXPANDD (BX)(R11*4), K1, Z4; \
	VPSUBD Z3, Z4, Z4; \
	VMOVDQA32.Z Z15, K1, Z5; \
	VALIGND $15, Z13, Z5, Z6; \
	VPMAXSD Z6, Z5, Z5; \
	VALIGND $14, Z13, Z5, Z6; \
	VPMAXSD Z6, Z5, Z5; \
	VALIGND $12, Z13, Z5, Z6; \
	VPMAXSD Z6, Z5, Z5; \
	VALIGND $8, Z13, Z5, Z6; \
	VPMAXSD Z6, Z5, Z5; \
	VPERMI2D Z4, Z12, Z5; \
	VPADDD Z3, Z5, Z7; \
	KMOVW K1, AX; \
	POPCNTL AX, AX; \
	ADDQ AX, R11; \
	JMP gather; \
done: \
	VZEROUPPER; \
	RET

// PREFIX8 turns the eight dwords of V into their inclusive prefix sum
// (T is scratch): two in-lane shift+add steps, then the low half's
// total added to the high half.
#define PREFIX8(V, T) \
	VPSLLDQ $4, V, T; \
	VPADDD T, V, V; \
	VPSLLDQ $8, V, T; \
	VPADDD T, V, V; \
	VPSHUFD $0xff, V, T; \
	VPERM2I128 $0x08, T, T, T; \
	VPADDD T, V, V

// DELTA_AVX2 is the 8-lane body: a 16-element step decodes two groups
// of eight (Y7, Y8) and issues four 4-wide gathers, the 8-element step
// one group and two gathers. A group's columns are carry + its prefix
// sum, and the next carry is lane 7 broadcast (VPERMD). AVX2 has no
// expand, so a step that holds an escape decodes its columns with the
// scalar rule into the 64-byte stack buffer at 0(SP) (j saved at
// 64(SP)), reloads them and still gathers. OFF8 is the byte offset of
// the second group (8*SCALE).
//
// Vector registers: Y0/Y1 accumulators, X2 the scalar sum, Y3..Y6
// decode temporaries, Y7/Y8 columns, Y9 carry, Y10 zero, Y11 all 7s,
// Y12 gather mask, Y13/Y14 gathered x.
#define DELTA_AVX2(ZX, SCALE, OFF8, TAILMOV) \
	MOVQ deltas_base+48(FP), DI; \
	MOVQ overflow_base+72(FP), BX; \
	MOVQ val_base+96(FP), SI; \
	MOVQ x_base+120(FP), R8; \
	MOVQ y_base+144(FP), R9; \
	MOVQ lo+168(FP), CX; \
	MOVQ hi+176(FP), DX; \
	MOVQ oi+184(FP), R11; \
	VPXOR Y10, Y10, Y10; \
	MOVL $7, AX; \
	VMOVD AX, X11; \
	VPBROADCASTD X11, Y11; \
	CMPQ CX, DX; \
	JGE done; \
row: \
	MOVQ rowptr_base+0(FP), R10; \
	MOVQ (R10)(CX*8), R12; \
	MOVQ 8(R10)(CX*8), R13; \
	CMPQ R12, R13; \
	JEQ empty; \
	MOVQ firstcol_base+24(FP), R15; \
	MOVL (R15)(CX*4), AX; \
	VMOVSD (R8)(AX*8), X2; \
	VMULSD (SI)(R12*8), X2, X2; \
	INCQ R12; \
	LEAQ 8(R12), R14; \
	CMPQ R14, R13; \
	JGT tailloop; \
	VMOVD AX, X9; \
	VPBROADCASTD X9, Y9; \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
blk16: \
	LEAQ 16(R12), R14; \
	CMPQ R14, R13; \
	JGT chk8; \
	ZX (DI)(R12*SCALE), Y3; \
	ZX OFF8(DI)(R12*SCALE), Y5; \
	VPCMPEQD Y10, Y3, Y4; \
	VPCMPEQD Y10, Y5, Y6; \
	VPOR Y6, Y4, Y4; \
	VPTEST Y4, Y4; \
	JNE esc16; \
	PREFIX8(Y3, Y4); \
	VPADDD Y9, Y3, Y7; \
	VPERMD Y7, Y11, Y9; \
	PREFIX8(Y5, Y6); \
	VPADDD Y9, Y5, Y8; \
	VPERMD Y8, Y11, Y9; \
g16: \
	VPCMPEQD Y12, Y12, Y12; \
	VGATHERDPD Y12, (R8)(X7*8), Y13; \
	VFMADD231PD (SI)(R12*8), Y13, Y0; \
	VEXTRACTI128 $1, Y7, X7; \
	VPCMPEQD Y12, Y12, Y12; \
	VGATHERDPD Y12, (R8)(X7*8), Y14; \
	VFMADD231PD 32(SI)(R12*8), Y14, Y1; \
	VPCMPEQD Y12, Y12, Y12; \
	VGATHERDPD Y12, (R8)(X8*8), Y13; \
	VFMADD231PD 64(SI)(R12*8), Y13, Y0; \
	VEXTRACTI128 $1, Y8, X8; \
	VPCMPEQD Y12, Y12, Y12; \
	VGATHERDPD Y12, (R8)(X8*8), Y14; \
	VFMADD231PD 96(SI)(R12*8), Y14, Y1; \
	ADDQ $16, R12; \
	JMP blk16; \
chk8: \
	LEAQ 8(R12), R14; \
	CMPQ R14, R13; \
	JGT tail; \
	ZX (DI)(R12*SCALE), Y3; \
	VPCMPEQD Y10, Y3, Y4; \
	VPTEST Y4, Y4; \
	JNE esc8; \
	PREFIX8(Y3, Y4); \
	VPADDD Y9, Y3, Y7; \
	VPERMD Y7, Y11, Y9; \
g8: \
	VPCMPEQD Y12, Y12, Y12; \
	VGATHERDPD Y12, (R8)(X7*8), Y13; \
	VFMADD231PD (SI)(R12*8), Y13, Y0; \
	VEXTRACTI128 $1, Y7, X7; \
	VPCMPEQD Y12, Y12, Y12; \
	VGATHERDPD Y12, (R8)(X7*8), Y14; \
	VFMADD231PD 32(SI)(R12*8), Y14, Y1; \
	ADDQ $8, R12; \
tail: \
	VMOVD X9, AX; \
tailloop: \
	CMPQ R12, R13; \
	JGE reduce; \
	TAILMOV (DI)(R12*SCALE), R15; \
	TESTL R15, R15; \
	JEQ tailesc; \
	ADDL R15, AX; \
tailfma: \
	VMOVSD (R8)(AX*8), X3; \
	VFMADD231SD (SI)(R12*8), X3, X2; \
	INCQ R12; \
	JMP tailloop; \
tailesc: \
	MOVL (BX)(R11*4), AX; \
	INCQ R11; \
	JMP tailfma; \
reduce: \
	MOVQ rowptr_base+0(FP), R15; \
	MOVQ (R15)(CX*8), R15; \
	ADDQ $9, R15; \
	CMPQ R15, R13; \
	JGT store; \
	VADDPD Y1, Y0, Y0; \
	VEXTRACTF128 $1, Y0, X1; \
	VADDPD X1, X0, X0; \
	VHADDPD X0, X0, X0; \
	VADDSD X0, X2, X2; \
store: \
	VMOVSD X2, (R9)(CX*8); \
	JMP next; \
empty: \
	MOVQ $0, (R9)(CX*8); \
next: \
	INCQ CX; \
	CMPQ CX, DX; \
	JLT row; \
	JMP done; \
esc16: \
	MOVQ $16, R14; \
	JMP escdec; \
esc8: \
	MOVQ $8, R14; \
escdec: \
	MOVQ R12, 64(SP); \
	VMOVD X9, AX; \
	LEAQ 0(SP), R10; \
escloop: \
	TAILMOV (DI)(R12*SCALE), R15; \
	TESTL R15, R15; \
	JEQ escovf; \
	ADDL R15, AX; \
	JMP escstore; \
escovf: \
	MOVL (BX)(R11*4), AX; \
	INCQ R11; \
escstore: \
	MOVL AX, (R10); \
	ADDQ $4, R10; \
	INCQ R12; \
	DECQ R14; \
	JNE escloop; \
	MOVQ 64(SP), R12; \
	VMOVD AX, X9; \
	VPBROADCASTD X9, Y9; \
	VMOVDQU 0(SP), Y7; \
	VMOVDQU 32(SP), Y8; \
	LEAQ 16(R12), R14; \
	CMPQ R14, R13; \
	JLE g16; \
	JMP g8; \
done: \
	VZEROUPPER; \
	RET

// func deltaRange8AVX512(rowptr []int64, firstcol []int32, deltas []uint8, overflow []int32, val, x, y []float64, lo, hi, oi int)
TEXT ·deltaRange8AVX512(SB), NOSPLIT, $0-192
	PCALIGN $64
	DELTA_AVX512(VPMOVZXBD, 1, MOVBLZX)

// func deltaRange16AVX512(rowptr []int64, firstcol []int32, deltas []uint16, overflow []int32, val, x, y []float64, lo, hi, oi int)
TEXT ·deltaRange16AVX512(SB), NOSPLIT, $0-192
	PCALIGN $64
	DELTA_AVX512(VPMOVZXWD, 2, MOVWLZX)

// func deltaRange8AVX2(rowptr []int64, firstcol []int32, deltas []uint8, overflow []int32, val, x, y []float64, lo, hi, oi int)
TEXT ·deltaRange8AVX2(SB), NOSPLIT, $72-192
	PCALIGN $64
	DELTA_AVX2(VPMOVZXBD, 1, 8, MOVBLZX)

// func deltaRange16AVX2(rowptr []int64, firstcol []int32, deltas []uint16, overflow []int32, val, x, y []float64, lo, hi, oi int)
TEXT ·deltaRange16AVX2(SB), NOSPLIT, $72-192
	PCALIGN $64
	DELTA_AVX2(VPMOVZXWD, 2, 16, MOVWLZX)

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	PCALIGN $64
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	PCALIGN $64
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Register plan shared by the CSR range kernels:
//   R10 rowptr base   DI colind base   SI val base
//   R8  x base        R9 y base (or y cursor)
//   CX  row i         DX hi            R12 j   R13 row end   R14 unroll limit
//   AX  scratch column index

// func csrGatherRangeAVX2(rowptr []int64, colind []int32, val, x, y []float64, lo, hi int)
//
// y[i] = sum_j val[j]*x[colind[j]] for rows [lo,hi): 8 elements per
// iteration as two 4-wide gather+FMA streams, scalar-FMA tail.
TEXT ·csrGatherRangeAVX2(SB), NOSPLIT, $0-136
	PCALIGN $64
	MOVQ rowptr_base+0(FP), R10
	MOVQ colind_base+24(FP), DI
	MOVQ val_base+48(FP), SI
	MOVQ x_base+72(FP), R8
	MOVQ y_base+96(FP), R9
	MOVQ lo+120(FP), CX
	MOVQ hi+128(FP), DX
	CMPQ CX, DX
	JGE  a2done

a2row:
	MOVQ (R10)(CX*8), R12
	MOVQ 8(R10)(CX*8), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD X2, X2, X2
	LEAQ -8(R13), R14

a2loop8:
	CMPQ R12, R14
	JGT  a2tail
	VMOVDQU (DI)(R12*4), X3
	VMOVDQU 16(DI)(R12*4), X4
	VPCMPEQD Y5, Y5, Y5
	VGATHERDPD Y5, (R8)(X3*8), Y6
	VPCMPEQD Y5, Y5, Y5
	VGATHERDPD Y5, (R8)(X4*8), Y7
	VMOVUPD (SI)(R12*8), Y8
	VMOVUPD 32(SI)(R12*8), Y9
	VFMADD231PD Y6, Y8, Y0
	VFMADD231PD Y7, Y9, Y1
	ADDQ $8, R12
	JMP  a2loop8

a2tail:
	CMPQ R12, R13
	JGE  a2reduce
	MOVL (DI)(R12*4), AX
	VMOVSD (R8)(AX*8), X3
	VMOVSD (SI)(R12*8), X4
	VFMADD231SD X3, X4, X2
	INCQ R12
	JMP  a2tail

a2reduce:
	VADDPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	VADDSD X2, X0, X0
	VMOVSD X0, (R9)(CX*8)
	INCQ CX
	CMPQ CX, DX
	JLT  a2row

a2done:
	VZEROUPPER
	RET

// func csrGatherRangeAVX512(rowptr []int64, colind []int32, val, x, y []float64, lo, hi int)
//
// The 8-lane form: 16 elements per iteration as two 8-wide
// gather+FMA streams, one 8-wide step, scalar-FMA tail.
TEXT ·csrGatherRangeAVX512(SB), NOSPLIT, $0-136
	PCALIGN $64
	MOVQ rowptr_base+0(FP), R10
	MOVQ colind_base+24(FP), DI
	MOVQ val_base+48(FP), SI
	MOVQ x_base+72(FP), R8
	MOVQ y_base+96(FP), R9
	MOVQ lo+120(FP), CX
	MOVQ hi+128(FP), DX
	CMPQ CX, DX
	JGE  a5done

a5row:
	MOVQ (R10)(CX*8), R12
	MOVQ 8(R10)(CX*8), R13
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VXORPD X2, X2, X2
	LEAQ -16(R13), R14

a5loop16:
	CMPQ R12, R14
	JGT  a5chk8
	VMOVDQU (DI)(R12*4), Y3
	VMOVDQU 32(DI)(R12*4), Y4
	KXNORW K1, K1, K1
	VGATHERDPD (R8)(Y3*8), K1, Z6
	KXNORW K2, K2, K2
	VGATHERDPD (R8)(Y4*8), K2, Z7
	VMOVUPD (SI)(R12*8), Z8
	VMOVUPD 64(SI)(R12*8), Z9
	VFMADD231PD Z6, Z8, Z0
	VFMADD231PD Z7, Z9, Z1
	ADDQ $16, R12
	JMP  a5loop16

a5chk8:
	LEAQ -8(R13), R14
	CMPQ R12, R14
	JGT  a5tail
	VMOVDQU (DI)(R12*4), Y3
	KXNORW K1, K1, K1
	VGATHERDPD (R8)(Y3*8), K1, Z6
	VMOVUPD (SI)(R12*8), Z8
	VFMADD231PD Z6, Z8, Z0
	ADDQ $8, R12

a5tail:
	CMPQ R12, R13
	JGE  a5reduce
	MOVL (DI)(R12*4), AX
	VMOVSD (R8)(AX*8), X3
	VMOVSD (SI)(R12*8), X4
	VFMADD231SD X3, X4, X2
	INCQ R12
	JMP  a5tail

a5reduce:
	VADDPD Z1, Z0, Z0
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	VADDSD X2, X0, X0
	VMOVSD X0, (R9)(CX*8)
	INCQ CX
	CMPQ CX, DX
	JLT  a5row

a5done:
	VZEROUPPER
	RET

// func sellChunkC8AVX2(vals *float64, cols *int32, x *float64, w int64, acc *[8]float64)
//
// One SELL-C-σ chunk (C == 8), column-major: acc[r] accumulates row
// r's dot product across the w padded column slots. vals/cols point
// at the chunk's first slot (ChunkPtr[k] already applied). Each lane
// accumulates its row's terms in slot order — the same order as the
// scalar oracle's acc[0..7].
TEXT ·sellChunkC8AVX2(SB), NOSPLIT, $0-40
	PCALIGN $64
	MOVQ vals+0(FP), SI
	MOVQ cols+8(FP), DI
	MOVQ x+16(FP), R8
	MOVQ w+24(FP), CX
	MOVQ acc+32(FP), R9
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

s2loop:
	TESTQ CX, CX
	JLE  s2done
	VMOVDQU (DI), X3
	VMOVDQU 16(DI), X4
	VPCMPEQD Y5, Y5, Y5
	VGATHERDPD Y5, (R8)(X3*8), Y6
	VPCMPEQD Y5, Y5, Y5
	VGATHERDPD Y5, (R8)(X4*8), Y7
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VFMADD231PD Y6, Y8, Y0
	VFMADD231PD Y7, Y9, Y1
	ADDQ $64, SI
	ADDQ $32, DI
	DECQ CX
	JMP  s2loop

s2done:
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, 32(R9)
	VZEROUPPER
	RET

// func sellChunkC8AVX512(vals *float64, cols *int32, x *float64, w int64, acc *[8]float64)
//
// The 8-lane form: one chunk column slot is exactly one ZMM gather +
// one FMA.
TEXT ·sellChunkC8AVX512(SB), NOSPLIT, $0-40
	PCALIGN $64
	MOVQ vals+0(FP), SI
	MOVQ cols+8(FP), DI
	MOVQ x+16(FP), R8
	MOVQ w+24(FP), CX
	MOVQ acc+32(FP), R9
	VPXORQ Z0, Z0, Z0

s5loop:
	TESTQ CX, CX
	JLE  s5done
	VMOVDQU (DI), Y3
	KXNORW K1, K1, K1
	VGATHERDPD (R8)(Y3*8), K1, Z6
	VMOVUPD (SI), Z8
	VFMADD231PD Z6, Z8, Z0
	ADDQ $64, SI
	ADDQ $32, DI
	DECQ CX
	JMP  s5loop

s5done:
	VMOVUPD Z0, (R9)
	VZEROUPPER
	RET

// func csrBlock4RangeAVX2(rowptr []int64, colind []int32, val, x, y []float64, lo, hi int)
//
// Register-blocked SpMM, k=4 interleaved right-hand sides: broadcast
// the matrix value, load the column's contiguous 4-wide x row, FMA.
// No gathers — the block layout makes every x access unit-stride,
// which is why these bodies get the biggest SIMD win. Two
// accumulators hide FMA latency; R15 walks y by one 32-byte row per
// matrix row.
TEXT ·csrBlock4RangeAVX2(SB), NOSPLIT, $0-136
	PCALIGN $64
	MOVQ rowptr_base+0(FP), R10
	MOVQ colind_base+24(FP), DI
	MOVQ val_base+48(FP), SI
	MOVQ x_base+72(FP), R8
	MOVQ y_base+96(FP), R9
	MOVQ lo+120(FP), CX
	MOVQ hi+128(FP), DX
	CMPQ CX, DX
	JGE  b4done
	MOVQ CX, R15
	SHLQ $5, R15
	ADDQ R9, R15

b4row:
	MOVQ (R10)(CX*8), R12
	MOVQ 8(R10)(CX*8), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	LEAQ -2(R13), R14

b4loop2:
	CMPQ R12, R14
	JGT  b4tail
	MOVL (DI)(R12*4), AX
	SHLQ $2, AX
	VBROADCASTSD (SI)(R12*8), Y2
	VMOVUPD (R8)(AX*8), Y3
	VFMADD231PD Y3, Y2, Y0
	MOVL 4(DI)(R12*4), AX
	SHLQ $2, AX
	VBROADCASTSD 8(SI)(R12*8), Y2
	VMOVUPD (R8)(AX*8), Y3
	VFMADD231PD Y3, Y2, Y1
	ADDQ $2, R12
	JMP  b4loop2

b4tail:
	CMPQ R12, R13
	JGE  b4store
	MOVL (DI)(R12*4), AX
	SHLQ $2, AX
	VBROADCASTSD (SI)(R12*8), Y2
	VMOVUPD (R8)(AX*8), Y3
	VFMADD231PD Y3, Y2, Y0
	INCQ R12

b4store:
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (R15)
	ADDQ $32, R15
	INCQ CX
	CMPQ CX, DX
	JLT  b4row

b4done:
	VZEROUPPER
	RET

// func csrBlock8RangeAVX2(rowptr []int64, colind []int32, val, x, y []float64, lo, hi int)
//
// k=8: one broadcast feeds two 4-wide FMAs per element (the two
// halves of the 64-byte x row).
TEXT ·csrBlock8RangeAVX2(SB), NOSPLIT, $0-136
	PCALIGN $64
	MOVQ rowptr_base+0(FP), R10
	MOVQ colind_base+24(FP), DI
	MOVQ val_base+48(FP), SI
	MOVQ x_base+72(FP), R8
	MOVQ y_base+96(FP), R9
	MOVQ lo+120(FP), CX
	MOVQ hi+128(FP), DX
	CMPQ CX, DX
	JGE  b8done
	MOVQ CX, R15
	SHLQ $6, R15
	ADDQ R9, R15

b8row:
	MOVQ (R10)(CX*8), R12
	MOVQ 8(R10)(CX*8), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

b8loop:
	CMPQ R12, R13
	JGE  b8store
	MOVL (DI)(R12*4), AX
	SHLQ $3, AX
	VBROADCASTSD (SI)(R12*8), Y2
	VMOVUPD (R8)(AX*8), Y3
	VMOVUPD 32(R8)(AX*8), Y4
	VFMADD231PD Y3, Y2, Y0
	VFMADD231PD Y4, Y2, Y1
	INCQ R12
	JMP  b8loop

b8store:
	VMOVUPD Y0, (R15)
	VMOVUPD Y1, 32(R15)
	ADDQ $64, R15
	INCQ CX
	CMPQ CX, DX
	JLT  b8row

b8done:
	VZEROUPPER
	RET

// func csrBlock8RangeAVX512(rowptr []int64, colind []int32, val, x, y []float64, lo, hi int)
//
// k=8 at full ZMM width: one broadcast + one FMA per element, two
// accumulators to hide FMA latency.
TEXT ·csrBlock8RangeAVX512(SB), NOSPLIT, $0-136
	PCALIGN $64
	MOVQ rowptr_base+0(FP), R10
	MOVQ colind_base+24(FP), DI
	MOVQ val_base+48(FP), SI
	MOVQ x_base+72(FP), R8
	MOVQ y_base+96(FP), R9
	MOVQ lo+120(FP), CX
	MOVQ hi+128(FP), DX
	CMPQ CX, DX
	JGE  c8done
	MOVQ CX, R15
	SHLQ $6, R15
	ADDQ R9, R15

c8row:
	MOVQ (R10)(CX*8), R12
	MOVQ 8(R10)(CX*8), R13
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	LEAQ -2(R13), R14

c8loop2:
	CMPQ R12, R14
	JGT  c8tail
	MOVL (DI)(R12*4), AX
	SHLQ $3, AX
	VBROADCASTSD (SI)(R12*8), Z2
	VMOVUPD (R8)(AX*8), Z3
	VFMADD231PD Z3, Z2, Z0
	MOVL 4(DI)(R12*4), AX
	SHLQ $3, AX
	VBROADCASTSD 8(SI)(R12*8), Z2
	VMOVUPD (R8)(AX*8), Z3
	VFMADD231PD Z3, Z2, Z1
	ADDQ $2, R12
	JMP  c8loop2

c8tail:
	CMPQ R12, R13
	JGE  c8store
	MOVL (DI)(R12*4), AX
	SHLQ $3, AX
	VBROADCASTSD (SI)(R12*8), Z2
	VMOVUPD (R8)(AX*8), Z3
	VFMADD231PD Z3, Z2, Z0
	INCQ R12

c8store:
	VADDPD Z1, Z0, Z0
	VMOVUPD Z0, (R15)
	ADDQ $64, R15
	INCQ CX
	CMPQ CX, DX
	JLT  c8row

c8done:
	VZEROUPPER
	RET

