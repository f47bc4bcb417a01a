package tensor

import (
	"fmt"
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

// The small-path crossover predicate (GemmUsesSmallPath) and its per-ISA
// thresholds live in isa.go next to the ISA dispatch they depend on.

// Gemm computes C = alpha*op(A)*op(B) + beta*C for row-major matrices,
// where op is identity or transpose per transA/transB. A is m×k (after op),
// B is k×n, C is m×n. This is the workhorse behind the "implicit GEMM"
// convolution formulation the paper's FLOP accounting assumes.
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
	// The packed path pays for its panel traffic only when the panels are
	// reused enough: a skinny M (few C rows per packed B) or a shallow K
	// (few micro-kernel steps per packed element) makes packing a net loss,
	// as does a small problem overall.
	// The small path is always the scalar reference kernels, under every
	// ISA: ConvGemm's direct convolution mirrors gemmSmallRows
	// term-for-term and relies on bit-identical results for small shapes.
	// Only the blocked path below dispatches to the AVX2 micro-kernels.
	if GemmUsesSmallPath(m, n, k) {
		gemmSmall(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
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

// ---------- small path: serial single-pass kernels ----------

// gemmSmall handles shapes the packed path cannot amortize: unblocked
// row-wise kernels with beta folded into the row/tile updates, fanned out
// over rows when skinny but large.
func gemmSmall(transA, transB bool, m, n, k int, alpha float32, a []float32, lda int,
	b []float32, ldb int, beta float32, c []float32, ldc int) {
	if chunks := fanout(m, 2*m*n*k); chunks > 1 {
		parallelFor(m, chunks, func(lo, hi int) {
			gemmSmallRows(transA, transB, lo, hi, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		})
		return
	}
	gemmSmallRows(transA, transB, 0, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// gemmSmallRows computes C rows [lo, hi).
func gemmSmallRows(transA, transB bool, lo, hi, n, k int, alpha float32, a []float32, lda int,
	b []float32, ldb int, beta float32, c []float32, ldc int) {
	switch {
	case !transB:
		// Axpy form over rows of B, register-blocked 4 B-rows deep: each
		// pass streams four B rows against one C row, quartering the C
		// load/store traffic. The C row is beta-scaled once, in cache.
		for i := lo; i < hi; i++ {
			ci := c[i*ldc : i*ldc+n]
			scaleRow(ci, beta)
			p := 0
			for ; p+3 < k; p += 4 {
				var a0, a1, a2, a3 float32
				if transA {
					a0 = alpha * a[p*lda+i]
					a1 = alpha * a[(p+1)*lda+i]
					a2 = alpha * a[(p+2)*lda+i]
					a3 = alpha * a[(p+3)*lda+i]
				} else {
					a0 = alpha * a[i*lda+p]
					a1 = alpha * a[i*lda+p+1]
					a2 = alpha * a[i*lda+p+2]
					a3 = alpha * a[i*lda+p+3]
				}
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				b0 := b[p*ldb : p*ldb+n]
				b1 := b[(p+1)*ldb : (p+1)*ldb+n]
				b2 := b[(p+2)*ldb : (p+2)*ldb+n]
				b3 := b[(p+3)*ldb : (p+3)*ldb+n]
				for j := range ci {
					ci[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
				}
			}
			for ; p < k; p++ {
				var ap float32
				if transA {
					ap = alpha * a[p*lda+i]
				} else {
					ap = alpha * a[i*lda+p]
				}
				if ap == 0 {
					continue
				}
				bp := b[p*ldb : p*ldb+n]
				for j, bv := range bp {
					ci[j] += ap * bv
				}
			}
		}
	case !transA:
		// Dot form (B stored n×k). Four B rows are streamed per pass so the
		// A row is loaded once per step, and the four running sums form
		// independent FP-add chains (a single-accumulator dot is
		// latency-bound); the tail uses a 4-way unrolled single dot.
		for i := lo; i < hi; i++ {
			ai := a[i*lda : i*lda+k]
			ci := c[i*ldc : i*ldc+n]
			j := 0
			for ; j+3 < n; j += 4 {
				b0 := b[j*ldb : j*ldb+k]
				b1 := b[(j+1)*ldb : (j+1)*ldb+k]
				b2 := b[(j+2)*ldb : (j+2)*ldb+k]
				b3 := b[(j+3)*ldb : (j+3)*ldb+k]
				var s0, s1, s2, s3 float32
				for p, av := range ai {
					s0 += av * b0[p]
					s1 += av * b1[p]
					s2 += av * b2[p]
					s3 += av * b3[p]
				}
				ci[j] = betaTimes(beta, ci[j]) + alpha*s0
				ci[j+1] = betaTimes(beta, ci[j+1]) + alpha*s1
				ci[j+2] = betaTimes(beta, ci[j+2]) + alpha*s2
				ci[j+3] = betaTimes(beta, ci[j+3]) + alpha*s3
			}
			for ; j < n; j++ {
				bj := b[j*ldb : j*ldb+k]
				ci[j] = betaTimes(beta, ci[j]) + alpha*dot4(ai, bj, k)
			}
		}
	default:
		// Aᵀ·Bᵀ: dot over strided A column and contiguous B row.
		for i := lo; i < hi; i++ {
			ci := c[i*ldc : i*ldc+n]
			for j := 0; j < n; j++ {
				bj := b[j*ldb : j*ldb+k]
				var sum float32
				for p := 0; p < k; p++ {
					sum += a[p*lda+i] * bj[p]
				}
				ci[j] = betaTimes(beta, ci[j]) + alpha*sum
			}
		}
	}
}

// dot4 is a 4-accumulator float32 dot product over x[:k], y[:k].
func dot4(x, y []float32, k int) float32 {
	var s0, s1, s2, s3 float32
	p := 0
	for ; p+3 < k; p += 4 {
		s0 += x[p] * y[p]
		s1 += x[p+1] * y[p+1]
		s2 += x[p+2] * y[p+2]
		s3 += x[p+3] * y[p+3]
	}
	for ; p < k; p++ {
		s0 += x[p] * y[p]
	}
	return (s0 + s1) + (s2 + s3)
}

// betaTimes returns beta*v without reading v when beta is zero, so C may
// hold uninitialized pool memory (including NaNs) under beta==0 semantics.
func betaTimes(beta, v float32) float32 {
	if beta == 0 {
		return 0
	}
	return beta * v
}

func scaleRow(row []float32, beta float32) {
	switch beta {
	case 1:
	case 0:
		clear(row)
	default:
		for j := range row {
			row[j] *= beta
		}
	}
}

// ---------- blocked path: packed panels + register micro-kernel ----------

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
// steps, then writes C[:mEdge,:nEdge] under the epilogue mode.
func gemmMicro(kc int, ap, bp []float32, alpha, beta float32, mode int,
	c []float32, ldc, mEdge, nEdge int) {
	var acc [gemmMR * gemmNR]float32
	for p := 0; p < kc; p++ {
		av := (*[gemmMR]float32)(ap[p*gemmMR:])
		bv := (*[gemmNR]float32)(bp[p*gemmNR:])
		a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
		for j := 0; j < gemmNR; j++ {
			bj := bv[j]
			acc[0*gemmNR+j] += a0 * bj
			acc[1*gemmNR+j] += a1 * bj
			acc[2*gemmNR+j] += a2 * bj
			acc[3*gemmNR+j] += a3 * bj
		}
	}
	for i := 0; i < mEdge; i++ {
		ci := c[i*ldc : i*ldc+nEdge]
		accRow := acc[i*gemmNR:]
		switch mode {
		case 0:
			for j := range ci {
				ci[j] += alpha * accRow[j]
			}
		case 1:
			for j := range ci {
				ci[j] = alpha * accRow[j]
			}
		default:
			for j := range ci {
				ci[j] = beta*ci[j] + alpha*accRow[j]
			}
		}
	}
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

// MatMul multiplies two rank-2 tensors: (m×k)·(k×n) → m×n.
func MatMul(a, b *Tensor) *Tensor {
	if a.shape.Rank() != 2 || b.shape.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, k2))
	}
	c := New(Shape{m, n})
	Gemm(false, false, m, n, k, 1, a.data, k, b.data, n, 0, c.data, n)
	return c
}
