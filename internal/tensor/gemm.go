package tensor

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Cache-blocked GEMM geometry. The kernel follows the classic panel-packing
// decomposition (GotoBLAS/BLIS): C is computed in MR×NR register tiles from
// an A panel packed into MR-strips and a B panel packed into NR-strips, so
// the innermost loop streams both operands contiguously regardless of the
// transpose flags, and each packed panel is reused across a whole cache
// block instead of being re-read strided from DRAM.
const (
	gemmMR = 4   // register-tile rows
	gemmNR = 8   // register-tile cols
	gemmKC = 256 // K cache block (A strip + B strip stay L1/L2 resident)
	gemmMC = 128 // M cache block (one packed A panel)
	gemmNC = 2048
)

// Gemm computes C = alpha*op(A)*op(B) + beta*C for row-major matrices,
// where op is identity or transpose per transA/transB. A is m×k (after op),
// B is k×n, C is m×n. This is the workhorse behind the "implicit GEMM"
// convolution formulation the paper's FLOP accounting assumes.
//
// Every element has one numeric definition, so the kernel ISA never changes
// a bit: within each K block of 256 steps, acc is an in-order chain of
// float32 fused multiply-adds over p starting from +0 (the AVX2 kernel's
// VFMADD231PS, the scalar kernel's fma32); the blocks are applied to C in
// order, the first as C = alpha*acc (beta == 0) or C = beta*C + alpha*acc,
// each later one as C += alpha*acc, every product and sum there rounded
// separately. No product of A and B is skipped because a factor is zero,
// so 0·Inf gives NaN on every shape; alpha == 0, as in BLAS, only scales C.
//
// Beta scaling is folded into the compute tiles (no separate pass over C),
// and with beta == 0 the previous contents of C are never read, so C may be
// an uninitialized pool buffer.
func Gemm(transA, transB bool, m, n, k int, alpha float32, a []float32, lda int,
	b []float32, ldb int, beta float32, c []float32, ldc int) {
	checkGemmArgs(transA, transB, m, n, k, a, lda, b, ldb, c, ldc)
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 || k == 0 {
		gemmScaleC(beta, m, n, c, ldc)
		return
	}
	gemmBlocked(ActiveISA() == ISAAVX2, transA, m, n, k, alpha, a, lda,
		bSource{transB: transB, b: b, ldb: ldb}, beta, c, ldc)
}

func checkGemmArgs(transA, transB bool, m, n, k int, a []float32, lda int,
	b []float32, ldb int, c []float32, ldc int) {
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("tensor: Gemm negative dims m=%d n=%d k=%d", m, n, k))
	}
	arows, acols := m, k
	if transA {
		arows, acols = k, m
	}
	brows, bcols := k, n
	if transB {
		brows, bcols = n, k
	}
	if lda < acols || ldb < bcols || ldc < n {
		panic(fmt.Sprintf("tensor: Gemm bad leading dims lda=%d ldb=%d ldc=%d", lda, ldb, ldc))
	}
	if arows > 0 && acols > 0 && len(a) < (arows-1)*lda+acols {
		panic("tensor: Gemm A too short")
	}
	if brows > 0 && bcols > 0 && len(b) < (brows-1)*ldb+bcols {
		panic("tensor: Gemm B too short")
	}
	if m > 0 && len(c) < (m-1)*ldc+n {
		panic("tensor: Gemm C too short")
	}
}

// gemmScaleC applies C = beta*C when there is no multiply work (alpha==0 or
// k==0).
func gemmScaleC(beta float32, m, n int, c []float32, ldc int) {
	if beta == 1 {
		return
	}
	parallelFor(m, fanout(m, 8*m*n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := c[i*ldc : i*ldc+n]
			if beta == 0 {
				clear(row)
			} else {
				for j := range row {
					row[j] *= beta
				}
			}
		}
	})
}

// ---------- packed panels + register micro-kernel ----------

// panelSlots is the free list of GEMM packing panels: a fixed array of
// slots, each empty or holding one idle panel. Every concurrent executor —
// training ranks, serving replicas — packs panels on every blocked call,
// so the list takes no lock: a taker claims a slot by swapping its panel
// out, a giver by swapping into an empty slot. Unlike a sync.Pool, the
// collector never empties it, so how much a warm GEMM allocates does not
// depend on when the last collection ran.
var panelSlots [64]atomic.Pointer[panel]

// panel is one packing buffer. buf is set once at creation and never
// resliced, so a scan may read its length while another goroutine holds
// the panel.
type panel struct{ buf []float32 }

// getPanel returns the first idle panel of at least n elements, or a new
// one when none fits.
func getPanel(n int) *panel {
	for i := range panelSlots {
		if p := panelSlots[i].Load(); p != nil && len(p.buf) >= n && panelSlots[i].CompareAndSwap(p, nil) {
			return p
		}
	}
	return &panel{buf: make([]float32, n)}
}

// putPanel parks p in the first empty slot; when all are full, p is left
// to the collector.
func putPanel(p *panel) {
	for i := range panelSlots {
		if panelSlots[i].CompareAndSwap(nil, p) {
			return
		}
	}
}

// bSource is the B operand of the blocked driver: a stored matrix op(b),
// or — img set — the implicit im2col matrix of a zero-bordered image (see
// ConvGemm), or — imgT set — that matrix's transpose (see
// ConvGemmWeightGrad). The implicit matrices are never materialized.
type bSource struct {
	transB bool
	b      []float32
	ldb    int
	img    *convImage
	imgT   *convImage
}

// pack writes rows [pc, pc+kcEff) × columns [jc, jc+ncEff) of the operand
// into nr-wide strips, the panel layout of the nr-wide micro-kernel.
func (s bSource) pack(nr, jc, ncEff, pc, kcEff int, dst []float32) {
	switch {
	case s.img != nil:
		s.img.pack(nr, jc, ncEff, pc, kcEff, dst)
	case s.imgT != nil:
		s.imgT.packT(nr, jc, ncEff, pc, kcEff, dst)
	case nr == avxNR:
		packB16(s.transB, s.b, s.ldb, jc, ncEff, pc, kcEff, dst)
	default:
		packB(s.transB, s.b, s.ldb, jc, ncEff, pc, kcEff, dst)
	}
}

// gemmBlocked is the blocked driver of both kernel sets: the scalar 4×8
// micro-kernel below, and — avx2 set — the 6×16 assembly micro-kernel of
// gemm_avx2.go. The loop nest, the per-K-block fan-out over M blocks and
// the epilogue modes are shared; only the geometry, the packing routines
// and the register tile differ. B comes packed from its source, so a
// stored matrix and an implicit im2col matrix run the same loops.
//
// Epilogue modes, computed once per K block so no kernel branches on a
// float comparison in its inner position:
//
//	mode 0 — not the first K block: C += alpha*acc
//	mode 1 — first block, beta == 0: C  = alpha*acc (C never read)
//	mode 2 — first block, beta != 0: C  = beta*C + alpha*acc
func gemmBlocked(avx2, transA bool, m, n, k int, alpha float32, a []float32, lda int,
	b bSource, beta float32, c []float32, ldc int) {
	mr, nr, kc, mc, nc := gemmMR, gemmNR, gemmKC, gemmMC, gemmNC
	if avx2 {
		mr, nr, kc, mc, nc = avxMR, avxNR, avxKC, avxMC, avxNC
	}
	nc, kc, mc = min(nc, n), min(kc, k), min(mc, m)
	mcBlocks := (m + mc - 1) / mc

	bp := getPanel(((nc + nr - 1) / nr) * nr * kc)
	bPanel := bp.buf
	defer putPanel(bp)

	// The fan-out state travels by value: a closure capturing it would
	// force a heap allocation per blocked call even when the call runs
	// inline (escape analysis is static), and small-but-blocked GEMMs are
	// the steady state of the tiny training nets — the executor's
	// zero-alloc contract covers them.
	st := gemmBlock{
		avx2: avx2, transA: transA, alpha: alpha, beta: beta,
		a: a, lda: lda, c: c, ldc: ldc, m: m, mc: mc,
		aPanelMax: ((mc + mr - 1) / mr) * mr * kc, bPanel: bPanel,
	}
	for jc := 0; jc < n; jc += nc {
		st.jc = jc
		st.ncEff = min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			st.pc = pc
			st.kcEff = min(kc, k-pc)
			b.pack(nr, jc, st.ncEff, pc, st.kcEff, bPanel)
			switch {
			case pc != 0:
				st.mode = 0
			case beta == 0:
				st.mode = 1
			default:
				st.mode = 2
			}
			// Each K block is one fan-out over disjoint M blocks: a worker
			// packs its own A panel and owns a distinct row range of C, and
			// chunk w stays on pool worker w across the K loop.
			if chunks := fanout(mcBlocks, 2*m*st.ncEff*st.kcEff); chunks > 1 {
				st.runParallel(mcBlocks, chunks)
			} else {
				st.run(0, mcBlocks)
			}
		}
	}
}

// gemmBlock is one K-block's worth of blocked-GEMM state, shared by the
// M-block fan-out. Methods take it by value so the inline path stays
// allocation-free; only runParallel's closure copies it to the heap.
type gemmBlock struct {
	avx2, transA bool
	mode         int
	alpha, beta  float32
	a            []float32
	lda          int
	c            []float32
	ldc          int
	m, mc        int
	jc, ncEff    int
	pc, kcEff    int
	aPanelMax    int
	bPanel       []float32
}

func (g gemmBlock) runParallel(mcBlocks, chunks int) {
	parallelFor(mcBlocks, chunks, func(blo, bhi int) { g.run(blo, bhi) })
}

// run packs and multiplies M blocks [blo, bhi).
func (g gemmBlock) run(blo, bhi int) {
	ap := getPanel(g.aPanelMax)
	aPanel := ap.buf
	defer putPanel(ap)
	if g.avx2 {
		g.runAVX2(blo, bhi, aPanel)
		return
	}
	for blk := blo; blk < bhi; blk++ {
		i0 := blk * g.mc
		mcEff := min(g.mc, g.m-i0)
		packA(g.transA, g.a, g.lda, i0, mcEff, g.pc, g.kcEff, aPanel)
		for jr := 0; jr < g.ncEff; jr += gemmNR {
			bStrip := g.bPanel[(jr/gemmNR)*g.kcEff*gemmNR:]
			nEdge := min(gemmNR, g.ncEff-jr)
			for ir := 0; ir < mcEff; ir += gemmMR {
				aStrip := aPanel[(ir/gemmMR)*g.kcEff*gemmMR:]
				mEdge := min(gemmMR, mcEff-ir)
				gemmMicro(g.kcEff, aStrip, bStrip, g.alpha, g.beta, g.mode,
					g.c[(i0+ir)*g.ldc+g.jc+jr:], g.ldc, mEdge, nEdge)
			}
		}
	}
}

// gemmMicro computes one MR×NR register tile: acc = Ap·Bp over kc packed
// steps as one fma32 chain per element, then writes C[:mEdge,:nEdge] under
// the epilogue mode. fma32's common case is spelled out in the loop — a
// float64 sum that is no float32 tie converts directly — and a column with
// a tie takes fma32 itself.
func gemmMicro(kc int, ap, bp []float32, alpha, beta float32, mode int,
	c []float32, ldc, mEdge, nEdge int) {
	var acc [gemmMR * gemmNR]float32
	for p := 0; p < kc; p++ {
		av := (*[gemmMR]float32)(ap[p*gemmMR:])
		bv := (*[gemmNR]float32)(bp[p*gemmNR:])
		a0, a1, a2, a3 := float64(av[0]), float64(av[1]), float64(av[2]), float64(av[3])
		for j := 0; j < gemmNR; j++ {
			bj := float64(bv[j])
			s0 := a0*bj + float64(acc[0*gemmNR+j])
			s1 := a1*bj + float64(acc[1*gemmNR+j])
			s2 := a2*bj + float64(acc[2*gemmNR+j])
			s3 := a3*bj + float64(acc[3*gemmNR+j])
			if f32Tie(s0) || f32Tie(s1) || f32Tie(s2) || f32Tie(s3) {
				for i := range gemmMR {
					acc[i*gemmNR+j] = fma32(av[i], bv[j], acc[i*gemmNR+j])
				}
				continue
			}
			acc[0*gemmNR+j] = float32(s0)
			acc[1*gemmNR+j] = float32(s1)
			acc[2*gemmNR+j] = float32(s2)
			acc[3*gemmNR+j] = float32(s3)
		}
	}
	gemmEpilogue(acc[:], gemmNR, alpha, beta, mode, c, ldc, mEdge, nEdge)
}

// gemmEpilogue applies the alpha/beta epilogue to the live mEdge×nEdge
// corner of a raw register tile whose rows are nr floats apart: the
// scalar tiles, the AVX2 edge tiles, and — row for row — the assembly
// epilogue, which multiplies and adds with separate roundings. The
// explicit float32 conversions keep a compiler that fuses (GOARCH=arm64)
// from turning a product and its sum into one FMA.
func gemmEpilogue(acc []float32, nr int, alpha, beta float32, mode int,
	c []float32, ldc, mEdge, nEdge int) {
	for i := 0; i < mEdge; i++ {
		ci := c[i*ldc : i*ldc+nEdge]
		accRow := acc[i*nr : i*nr+nEdge]
		switch mode {
		case 0:
			for j := range ci {
				ci[j] += float32(alpha * accRow[j])
			}
		case 1:
			for j := range ci {
				ci[j] = alpha * accRow[j]
			}
		default:
			for j := range ci {
				ci[j] = float32(beta*ci[j]) + float32(alpha*accRow[j])
			}
		}
	}
}

// fma32 returns a·b + c rounded once to float32, as one lane of a hardware
// FMA does, in portable Go. The float64 product of two float32s is exact,
// so the float64 sum s is the exact sum rounded once; unless f32Tie(s),
// float32(s) is then the correctly rounded result. A tie is settled by
// rounding to odd: TwoSum gives the exact error e of s, and an inexact,
// even s steps one float64 ulp toward the exact sum. Rounding to odd at
// more than float32's 24 bits plus two, then to float32, rounds the exact
// sum correctly (Boldo & Melquiond, "Emulation of FMA and correctly
// rounded sums: proved algorithms using rounding to odd", IEEE TC 57(4),
// 2008). A compiler may fuse the exact product into an addition without
// changing any of these results.
func fma32(a, b, c float32) float32 {
	p := float64(a) * float64(b)
	s := p + float64(c)
	if !f32Tie(s) {
		return float32(s)
	}
	t := s - p
	if e := (p - (s - t)) + (float64(c) - t); e != 0 {
		if u := math.Float64bits(s); u&1 == 0 {
			// Same signs: the exact sum lies beyond s, so step away from zero.
			s = math.Float64frombits(u + 1 - 2*((math.Float64bits(e)^u)>>63))
		}
	}
	return float32(s)
}

// f32Tie reports whether converting the float64 s to float32 might round
// differently from rounding the exact value s approximates. Rounding is
// monotone and float32's midpoints are float64 values, so that needs s to
// lie on a midpoint: in float32's normal range, low 29 mantissa bits of
// 1<<28; below it, where midpoints have fewer trailing zeros, any nonzero
// s is reported. Infinities are not.
func f32Tie(s float64) bool {
	u := math.Float64bits(s)
	return u&(1<<29-1) == 1<<28 || u<<1-1 < (1023-126)<<53-1
}

// packA copies rows [i0, i0+mcEff) × cols [pc, pc+kcEff) of op(A) into
// MR-strips: dst[strip*kcEff*MR + p*MR + i], zero-padding edge rows so the
// micro-kernel never branches on M.
func packA(transA bool, a []float32, lda, i0, mcEff, pc, kcEff int, dst []float32) {
	for s := 0; s*gemmMR < mcEff; s++ {
		base := s * kcEff * gemmMR
		rows := min(gemmMR, mcEff-s*gemmMR)
		if transA {
			// op(A)[i][p] = a[p*lda + i] (A stored k×m): one contiguous read
			// per p covers the whole strip.
			for p := 0; p < kcEff; p++ {
				src := a[(pc+p)*lda+i0+s*gemmMR:]
				d := dst[base+p*gemmMR:]
				for i := 0; i < rows; i++ {
					d[i] = src[i]
				}
				for i := rows; i < gemmMR; i++ {
					d[i] = 0
				}
			}
		} else {
			for i := 0; i < rows; i++ {
				src := a[(i0+s*gemmMR+i)*lda+pc:]
				for p := 0; p < kcEff; p++ {
					dst[base+p*gemmMR+i] = src[p]
				}
			}
			for i := rows; i < gemmMR; i++ {
				for p := 0; p < kcEff; p++ {
					dst[base+p*gemmMR+i] = 0
				}
			}
		}
	}
}

// packB copies rows [pc, pc+kcEff) × cols [jc, jc+ncEff) of op(B) into
// NR-strips: dst[strip*kcEff*NR + p*NR + j], zero-padding edge columns.
func packB(transB bool, b []float32, ldb, jc, ncEff, pc, kcEff int, dst []float32) {
	for s := 0; s*gemmNR < ncEff; s++ {
		base := s * kcEff * gemmNR
		cols := min(gemmNR, ncEff-s*gemmNR)
		if transB {
			// op(B)[p][j] = b[j*ldb + p] (B stored n×k).
			for j := 0; j < cols; j++ {
				src := b[(jc+s*gemmNR+j)*ldb+pc:]
				for p := 0; p < kcEff; p++ {
					dst[base+p*gemmNR+j] = src[p]
				}
			}
			for j := cols; j < gemmNR; j++ {
				for p := 0; p < kcEff; p++ {
					dst[base+p*gemmNR+j] = 0
				}
			}
		} else {
			for p := 0; p < kcEff; p++ {
				src := b[(pc+p)*ldb+jc+s*gemmNR:]
				d := dst[base+p*gemmNR:]
				for j := 0; j < cols; j++ {
					d[j] = src[j]
				}
				for j := cols; j < gemmNR; j++ {
					d[j] = 0
				}
			}
		}
	}
}
