package tensor

// The AVX2 half of the blocked GEMM: the 6×16 assembly micro-kernel
// (gemm_avx2_amd64.s) in the inner position of gemm.go's shared driver,
// with its own vectorized panel packing. This file is portable Go — on
// non-amd64 builds ActiveISA() never resolves to ISAAVX2, so runAVX2 is
// unreachable (the simdGemmTile stubs panic to keep that invariant loud).
//
// Both the assembly epilogue and the Go edge epilogue use the same
// mul-then-add rounding, so full tiles and masked edge tiles are
// bit-consistent with each other; only the K-loop FMA chains reassociate
// relative to the scalar kernel (≤4·ULP per accumulation chain).

// runAVX2 packs and multiplies M blocks [blo, bhi) with the 6×16 kernel.
func (g gemmBlock) runAVX2(blo, bhi int, aPanel []float32) {
	var acc [avxMR * avxNR]float32
	for blk := blo; blk < bhi; blk++ {
		i0 := blk * g.mc
		mcEff := min(g.mc, g.m-i0)
		packA6(g.transA, g.a, g.lda, i0, mcEff, g.pc, g.kcEff, aPanel)
		for jr := 0; jr < g.ncEff; jr += avxNR {
			bStrip := g.bPanel[(jr/avxNR)*g.kcEff*avxNR:]
			nEdge := min(avxNR, g.ncEff-jr)
			for ir := 0; ir < mcEff; ir += avxMR {
				aStrip := aPanel[(ir/avxMR)*g.kcEff*avxMR:]
				mEdge := min(avxMR, mcEff-ir)
				cTile := g.c[(i0+ir)*g.ldc+g.jc+jr:]
				if mEdge == avxMR && nEdge == avxNR {
					simdGemmTile(g.kcEff, aStrip, bStrip, g.alpha, g.beta, g.mode, cTile, g.ldc)
				} else {
					// Masked-edge variant: packing zero-padded the panels, so
					// the dead lanes hold zeros and the epilogue simply
					// writes the live region.
					simdGemmTileAcc(g.kcEff, aStrip, bStrip, &acc)
					gemmEdgeAVX2(&acc, g.alpha, g.beta, g.mode, cTile, g.ldc, mEdge, nEdge)
				}
			}
		}
	}
}

// gemmEdgeAVX2 applies the alpha/beta epilogue to the live mEdge×nEdge
// corner of a raw 6×16 accumulator — the same mul-then-add rounding as the
// assembly epilogue rows.
func gemmEdgeAVX2(acc *[avxMR * avxNR]float32, alpha, beta float32, mode int,
	c []float32, ldc, mEdge, nEdge int) {
	for i := 0; i < mEdge; i++ {
		ci := c[i*ldc : i*ldc+nEdge]
		accRow := acc[i*avxNR : i*avxNR+nEdge]
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

// packA6 packs rows [i0, i0+mcEff) × cols [pc, pc+kcEff) of op(A) into
// 6-row strips: dst[strip*kcEff*6 + p*6 + i], zero-padding edge rows. The
// transposed case copies whole strips with copy() (contiguous source →
// memmove's vector loop); the row-major case walks rows and scatters with
// stride 6.
func packA6(transA bool, a []float32, lda, i0, mcEff, pc, kcEff int, dst []float32) {
	for s := 0; s*avxMR < mcEff; s++ {
		base := s * kcEff * avxMR
		rows := min(avxMR, mcEff-s*avxMR)
		if transA {
			// op(A)[i][p] = a[p*lda + i] (A stored k×m): one contiguous
			// 6-float copy per K step covers the whole strip.
			for p := 0; p < kcEff; p++ {
				src := a[(pc+p)*lda+i0+s*avxMR:]
				d := dst[base+p*avxMR : base+(p+1)*avxMR]
				copy(d, src[:rows])
				for i := rows; i < avxMR; i++ {
					d[i] = 0
				}
			}
		} else {
			for i := 0; i < rows; i++ {
				src := a[(i0+s*avxMR+i)*lda+pc:]
				for p := 0; p < kcEff; p++ {
					dst[base+p*avxMR+i] = src[p]
				}
			}
			for i := rows; i < avxMR; i++ {
				for p := 0; p < kcEff; p++ {
					dst[base+p*avxMR+i] = 0
				}
			}
		}
	}
}

// packB16 packs rows [pc, pc+kcEff) × cols [jc, jc+ncEff) of op(B) into
// 16-column strips: dst[strip*kcEff*16 + p*16 + j], zero-padding edge
// columns. The row-major case copies 16 contiguous floats (one cache line)
// per K step via copy(); the transposed case gathers strided.
func packB16(transB bool, b []float32, ldb, jc, ncEff, pc, kcEff int, dst []float32) {
	for s := 0; s*avxNR < ncEff; s++ {
		base := s * kcEff * avxNR
		cols := min(avxNR, ncEff-s*avxNR)
		if transB {
			// op(B)[p][j] = b[j*ldb + p] (B stored n×k).
			for j := 0; j < cols; j++ {
				src := b[(jc+s*avxNR+j)*ldb+pc:]
				for p := 0; p < kcEff; p++ {
					dst[base+p*avxNR+j] = src[p]
				}
			}
			for j := cols; j < avxNR; j++ {
				for p := 0; p < kcEff; p++ {
					dst[base+p*avxNR+j] = 0
				}
			}
		} else {
			for p := 0; p < kcEff; p++ {
				src := b[(pc+p)*ldb+jc+s*avxNR:]
				d := dst[base+p*avxNR : base+(p+1)*avxNR]
				copy(d, src[:cols])
				for j := cols; j < avxNR; j++ {
					d[j] = 0
				}
			}
		}
	}
}
