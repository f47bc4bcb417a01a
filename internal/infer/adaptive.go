// Adaptive-compute serving: reduced-precision kernels and the early-exit
// background-tile path.
//
// # Precision contract
//
// The engine's Config.Precision selects one of three kernel sets with
// explicit, tested guarantees:
//
//	FP32  bit-identical to the training kernels — the parity reference.
//	FP16  every op output rounded through IEEE half precision; logits
//	      carry a tested relative error bound (max |logit − logit_fp32| ≤
//	      2e-3 × max |FP32 logit| over the corpus) and identical argmax
//	      masks on the reference corpus.
//	INT8  inference conv/GEMM kernels replaced by symmetric 8-bit
//	      quantized ones (per-output-channel weight scales, dynamic
//	      per-image activation scales, exact int32 accumulation); same
//	      bound-plus-identical-masks guarantee as FP16 at a 6e-2 relative
//	      bound.
//
// All three keep the batch-invariance property of the FP32 path: each batch
// element quantizes and reduces independently, so masks are bit-identical
// across batch groupings for every precision.
//
// # Early exit
//
// On the paper's workload most tiles are pure background (storms are rare
// and localized), yet the full-resolution decoder dominates the network's
// FLOPs. The exit path evaluates only the encoder's cheap first stage (the
// graph prefix up to Network.Exit), reduces it to a scalar confidence score,
// and lets tiles whose score falls below a calibrated threshold skip the
// decoder entirely: their keep region is written as all-background.
//
// The score is produced by a linear confidence head over pooled tap
// features (per-channel spatial mean, max, min, and a 4×4 grid of cell
// means, so small off-center storms stay visible). Calibrate fits the
// head in closed form — ridge regression against each tile's own full
// decode (storm present in the keep region or not), no labels or gradient
// steps needed — and then chooses the largest threshold that never exits a
// tile whose full decode contains a storm pixel. So on the calibration set
// the adaptive masks are bit-identical to full decodes by construction, and
// the exit rate is whatever the head's storm/background separation buys.
package infer

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Precision aliases graph.Precision so serving callers configure the engine
// without importing the graph package.
type Precision = graph.Precision

// Re-exported precision levels (see the contract above).
const (
	FP32 = graph.FP32
	FP16 = graph.FP16
	INT8 = graph.INT8
)

// HasExit reports whether the network carries an exit tap, i.e. whether the
// early-exit path is available on this runner.
func (r *Runner) HasExit() bool { return r.src.Exit != nil }

// Pooled statistics extracted per tap channel: the spatial mean, max, and
// min, then the mean of each cell of a poolGrid × poolGrid partition of the
// tap (the cell means localize: a storm confined to one corner of the tile
// barely moves the global mean but dominates its cell's).
const (
	poolGrid           = 4
	featuresPerChannel = 3 + poolGrid*poolGrid
)

// ExitHead is the linear confidence head the exit decision scores with:
// score = Weights · pooled(tap) + Bias, where pooled extracts the spatial
// mean, max, and min of each tap channel (so len(Weights) must be 3× the
// tap's channel count). Calibrate fits one in closed form; a zero-value
// head is invalid — callers without a fitted head pass nil to ExitScores
// and get the raw mean-|activation| energy score instead.
type ExitHead struct {
	Weights []float64
	Bias    float64
}

// ExitScores runs the exit branch over up to MaxBatch tiles and writes each
// tile's confidence score into scores[i]. With a head, the score is the
// head's linear read-out over pooled tap features — higher means more
// storm-like; with head == nil it degrades to the tap's mean absolute
// activation (raw feature energy). Only the Fields and Tile of each item
// are read; masks are untouched.
//
// Like RunBatch, the computation of each batch element is arithmetically
// independent of its neighbors, so scores are identical for every grouping
// of tiles into batches.
func (r *Runner) ExitScores(items []BatchItem, scores []float64, head *ExitHead) error {
	n := len(items)
	if n == 0 {
		return nil
	}
	if len(scores) < n {
		return fmt.Errorf("infer: scores buffer %d too small for batch of %d", len(scores), n)
	}
	tap, err := r.forward(&r.exit, items)
	if err != nil {
		return err
	}
	ts := tap.Shape()
	cp, th, tw := ts[1], ts[2], ts[3]
	per := tap.NumElements() / n
	td := tap.Data()
	if head != nil && len(head.Weights) != featuresPerChannel*cp {
		return fmt.Errorf("infer: exit head has %d weights, tap wants %d (%d per channel × %d channels)",
			len(head.Weights), featuresPerChannel*cp, featuresPerChannel, cp)
	}
	if head != nil && len(r.feats) != featuresPerChannel*cp {
		r.feats = make([]float64, featuresPerChannel*cp)
	}
	feats := r.feats
	for i := 0; i < n; i++ {
		if head == nil {
			var sum float64
			for _, v := range td[i*per : (i+1)*per] {
				sum += math.Abs(float64(v))
			}
			scores[i] = sum / float64(per)
			continue
		}
		poolTap(td[i*per:(i+1)*per], cp, th, tw, feats)
		s := head.Bias
		for c, w := range head.Weights {
			s += w * feats[c]
		}
		scores[i] = s
	}
	return nil
}

// poolTap extracts the featuresPerChannel pooled statistics of one batch
// element's tap values (cp channels over an h×w spatial grid) into out.
func poolTap(td []float32, cp, h, w int, out []float64) {
	hw := h * w
	for c := 0; c < cp; c++ {
		seg := td[c*hw : (c+1)*hw]
		sum := float64(seg[0])
		mx, mn := float64(seg[0]), float64(seg[0])
		var cell [poolGrid * poolGrid]float64
		var cn [poolGrid * poolGrid]int
		for p, v := range seg {
			f := float64(v)
			if p > 0 {
				sum += f
				if f > mx {
					mx = f
				}
				if f < mn {
					mn = f
				}
			}
			cy := (p / w) * poolGrid / h
			cx := (p % w) * poolGrid / w
			cell[cy*poolGrid+cx] += f
			cn[cy*poolGrid+cx]++
		}
		o := out[featuresPerChannel*c:]
		o[0] = sum / float64(hw)
		o[1] = mx
		o[2] = mn
		for q := range cell {
			if cn[q] > 0 {
				o[3+q] = cell[q] / float64(cn[q])
			}
		}
	}
}

// WriteBackground stitches an all-background (class 0) keep region for the
// item — the output of an exited tile. It is the exact mask a full decode
// would produce for any tile whose every keep-region argmax is background,
// which is what calibration guarantees for exited tiles.
func WriteBackground(it BatchItem) {
	md := it.Mask.Data()
	w := it.Mask.Shape()[1]
	t := it.Tile
	for y := t.KeepY0; y < t.KeepY1; y++ {
		row := md[(t.Y+y)*w+t.X:]
		for x := t.KeepX0; x < t.KeepX1; x++ {
			row[x] = 0
		}
	}
}

// Calibration is the result of an offline exit calibration pass: a fitted
// confidence head plus the threshold to exit under.
type Calibration struct {
	// Threshold is the exit decision boundary: a tile exits (skips the
	// decoder) iff its exit score is strictly below Threshold. +Inf when
	// the calibration set contains no storm tiles (everything may exit).
	Threshold float64
	// Head is the fitted linear confidence head the threshold is
	// calibrated against; serve with both together.
	Head ExitHead
	// Tiles and StormTiles count the calibration tiles seen and how many
	// of them contained at least one non-background keep-region pixel
	// under a full decode.
	Tiles, StormTiles int
	// ExitRate is the fraction of calibration tiles that would exit at
	// Threshold — the compute saving the calibration set predicts.
	ExitRate float64
	// MinStormScore is the lowest score observed on a storm tile (+Inf if
	// none): the safety headroom above Threshold.
	MinStormScore float64
}

// ridgeLambda regularizes the head fit. Small on purpose: the head should
// interpolate the calibration set as tightly as possible — the bit-parity
// guarantee is per-set, and a sharper fit buys a higher exit rate.
const ridgeLambda = 1e-6

// Calibrate fits the exit head and computes the largest exit threshold that
// never exits a storm tile on the given calibration fields. Every tile is
// fully decoded and its pooled tap features extracted with the runner's own
// engines (so scores match serving-time precision exactly); the head is the
// closed-form ridge regression of storm-in-keep-region (0/1, read off each
// tile's own decode) on those features; and the threshold is placed at the
// minimum head score over storm tiles. margin in (0, 1] pulls it down
// toward the background floor for headroom on unseen traffic: the threshold
// interpolates from the lowest background score (margin → 0) to the lowest
// storm score (margin = 1; 0 means 1, i.e. no safety gap).
//
// Because exit requires score < Threshold ≤ every storm tile's score, no
// storm tile of the calibration set exits — and a tile that does exit is a
// tile whose full decode was all-background in its keep region, so writing
// background is bit-identical there. On unseen traffic the guarantee is
// statistical; margin < 1 buys headroom.
func (r *Runner) Calibrate(fields []*tensor.Tensor, margin float64) (Calibration, error) {
	if !r.HasExit() {
		return Calibration{}, fmt.Errorf("infer: network has no exit tap to calibrate")
	}
	if margin < 0 || margin > 1 {
		return Calibration{}, fmt.Errorf("infer: calibration margin %v outside (0, 1]", margin)
	}
	if margin == 0 {
		margin = 1
	}
	if len(fields) == 0 {
		return Calibration{}, fmt.Errorf("infer: no calibration fields")
	}
	var feats [][]float64
	var storm []bool
	kb := r.cfg.maxBatch()
	items := make([]BatchItem, 0, kb)
	for _, f := range fields {
		mask, err := r.Segment(f)
		if err != nil {
			return Calibration{}, err
		}
		fs := f.Shape()
		plan, err := Plan(fs[1], fs[2], r.cfg)
		if err != nil {
			return Calibration{}, err
		}
		for start := 0; start < len(plan); start += kb {
			end := min(start+kb, len(plan))
			items = items[:0]
			for _, t := range plan[start:end] {
				items = append(items, BatchItem{Fields: f, Tile: t, Mask: mask})
			}
			tap, err := r.forward(&r.exit, items)
			if err != nil {
				return Calibration{}, err
			}
			ts := tap.Shape()
			cp, th, tw := ts[1], ts[2], ts[3]
			per := tap.NumElements() / len(items)
			td := tap.Data()
			for i, it := range items {
				u := make([]float64, featuresPerChannel*cp)
				poolTap(td[i*per:(i+1)*per], cp, th, tw, u)
				feats = append(feats, u)
				storm = append(storm, stormInKeep(mask, it.Tile))
			}
		}
	}
	head := ExitHead{}
	head.Weights, head.Bias = ridgeFit(feats, storm, ridgeLambda)

	minStorm, minBg := math.Inf(1), math.Inf(1)
	scores := make([]float64, len(feats))
	stormTiles := 0
	for i, u := range feats {
		s := head.Bias
		for c, w := range head.Weights {
			s += w * u[c]
		}
		scores[i] = s
		if storm[i] {
			stormTiles++
			minStorm = math.Min(minStorm, s)
		} else {
			minBg = math.Min(minBg, s)
		}
	}
	thr := math.Inf(1)
	if stormTiles > 0 {
		thr = minStorm
		if margin < 1 && !math.IsInf(minBg, 1) {
			thr = minBg + margin*(minStorm-minBg)
		}
		thr = math.Min(thr, minStorm)
	}
	exited := 0
	for _, s := range scores {
		if s < thr {
			exited++
		}
	}
	return Calibration{
		Threshold:     thr,
		Head:          head,
		Tiles:         len(feats),
		StormTiles:    stormTiles,
		ExitRate:      float64(exited) / float64(len(feats)),
		MinStormScore: minStorm,
	}, nil
}

// ridgeFit solves the regularized least squares min ‖Xw + b − y‖² + λ‖w‖²
// in closed form (normal equations + Gaussian elimination with partial
// pivoting; the bias is an unregularized extra column). The feature count
// is 3× the tap channel count — double digits for the registered networks —
// so the dense solve is microseconds.
func ridgeFit(X [][]float64, y []bool, lambda float64) (weights []float64, bias float64) {
	n := len(X)
	d := len(X[0]) + 1 // + bias column
	a := make([][]float64, d)
	rhs := make([]float64, d)
	for i := range a {
		a[i] = make([]float64, d)
		a[i][i] = lambda
	}
	a[d-1][d-1] = 0
	row := make([]float64, d)
	for r := 0; r < n; r++ {
		copy(row, X[r])
		row[d-1] = 1
		yv := 0.0
		if y[r] {
			yv = 1
		}
		for i := 0; i < d; i++ {
			rhs[i] += row[i] * yv
			for j := i; j < d; j++ {
				a[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 1; i < d; i++ { // mirror the symmetric lower triangle
		for j := 0; j < i; j++ {
			a[i][j] = a[j][i]
		}
	}
	for col := 0; col < d; col++ {
		piv := col
		for r := col + 1; r < d; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		rhs[col], rhs[piv] = rhs[piv], rhs[col]
		if a[col][col] == 0 {
			continue
		}
		inv := 1 / a[col][col]
		for r := 0; r < d; r++ {
			if r == col {
				continue
			}
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for j := col; j < d; j++ {
				a[r][j] -= f * a[col][j]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	w := make([]float64, d)
	for i := 0; i < d; i++ {
		if a[i][i] != 0 {
			w[i] = rhs[i] / a[i][i]
		}
	}
	return w[:d-1], w[d-1]
}

// stormInKeep reports whether the tile's keep region of mask contains any
// non-background pixel.
func stormInKeep(mask *tensor.Tensor, t Tile) bool {
	md := mask.Data()
	w := mask.Shape()[1]
	for y := t.KeepY0; y < t.KeepY1; y++ {
		row := md[(t.Y+y)*w+t.X:]
		for x := t.KeepX0; x < t.KeepX1; x++ {
			if row[x] != 0 {
				return true
			}
		}
	}
	return false
}
