package climate

import (
	"math"
	"sort"
	"sync"

	"repro/internal/tensor"
)

// Label runs the heuristic labeling pipeline on a field tensor
// [NumChannels, H, W], mirroring the paper's ground-truth production:
// a TECA-style tropical-cyclone detector (pressure minima with warm core
// and strong rotation, grown by floodfill over the wind field) and an
// atmospheric-river detector (IWV threshold, floodfill into connected
// components, geometric filtering). TC labels take precedence over AR
// labels where they overlap, as in the paper's 3-class masks.
func Label(fields *tensor.Tensor) *tensor.Tensor {
	s := fields.Shape()
	labels := tensor.New(tensor.Shape{s[1], s[2]})
	LabelInto(fields, labels)
	return labels
}

// LabelInto runs the labeling pipeline into an existing [H, W] tensor,
// overwriting every element (so reused buffers need no prior clearing).
func LabelInto(fields, labels *tensor.Tensor) {
	sc := labelScratchPool.Get().(*labelScratch)
	defer labelScratchPool.Put(sc)
	sc.reset(labels.NumElements())
	arMask := detectARs(fields, sc)
	tcMask := detectTCs(fields, sc)
	ld := labels.Data()
	for i := range ld {
		switch {
		case tcMask[i]:
			ld[i] = ClassTC
		case arMask[i]:
			ld[i] = ClassAR
		default:
			ld[i] = ClassBackground
		}
	}
}

// labelScratch is the detectors' per-grid working memory. Samples are
// labeled at step and frame rate, so it is recycled rather than allocated
// per call (36 KB a call at 32×48).
type labelScratch struct {
	f64                        []float64 // the sorted IWV copy, then the wind speed
	masks                      []bool    // backs the four below
	arMask, tcMask, cand, seen []bool
}

var labelScratchPool = sync.Pool{New: func() any { return new(labelScratch) }}

// reset sizes the scratch for an n-cell grid and clears the masks.
func (sc *labelScratch) reset(n int) {
	if cap(sc.f64) < n {
		sc.f64 = make([]float64, n)
		sc.masks = make([]bool, 4*n)
	}
	sc.f64 = sc.f64[:n]
	m := sc.masks[:4*n]
	clear(m)
	sc.arMask, sc.tcMask, sc.cand, sc.seen = m[:n], m[n:2*n], m[2*n:3*n], m[3*n:]
}

// ---- Tropical cyclone detection (TECA-style) ----

// tcParams are the detector thresholds, tuned to the synthetic fields but
// structured exactly like TECA's multivariate criteria.
const (
	tcPressureDeficit = 12.0 // hPa below zonal mean to seed a candidate
	tcWarmCore        = 1.5  // K T500 anomaly required
	tcWindFill        = 12.0 // m/s wind speed floodfill threshold
	tcMaxRadiusFrac   = 0.08 // candidates cap: radius as fraction of height
)

func detectTCs(fields *tensor.Tensor, sc *labelScratch) []bool {
	s := fields.Shape()
	h, w := s[1], s[2]
	d := fields.Data()
	at := func(c, y, x int) int { return (c*h+y)*w + x }

	// Zonal (per-row) mean pressure and T500 anomalies.
	pslMean := rowMeans(d[ChPSL*h*w:(ChPSL+1)*h*w], h, w)
	t500Mean := rowMeans(d[ChT500*h*w:(ChT500+1)*h*w], h, w)

	wind := sc.f64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := float64(d[at(ChU850, y, x)])
			v := float64(d[at(ChV850, y, x)])
			wind[y*w+x] = math.Hypot(u, v)
		}
	}

	mask := sc.tcMask
	maxRadius := int(tcMaxRadiusFrac * float64(h))
	for y := 1; y < h-1; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			deficit := pslMean[y] - float64(d[at(ChPSL, y, x)])
			if deficit < tcPressureDeficit {
				continue
			}
			// Local pressure minimum in the 3×3 neighbourhood.
			if !isLocalMin(d[ChPSL*h*w:(ChPSL+1)*h*w], h, w, y, x) {
				continue
			}
			// Warm core.
			if float64(d[at(ChT500, y, x)])-t500Mean[y] < tcWarmCore {
				continue
			}
			// Tropical genesis band.
			if lat := latitude(y, h); math.Abs(lat) > 45 {
				continue
			}
			// Grow the mask over the strong-wind region around the centre.
			floodfillDisk(wind, mask, h, w, y, x, tcWindFill, maxRadius)
			mask[i] = true
		}
	}
	return mask
}

// ---- Atmospheric river detection (floodfill on IWV) ----

const (
	arPercentile   = 0.967 // IWV percentile used to seed AR candidates
	arMinPixelFrac = 3e-4  // components smaller than this are discarded
	arMinElong     = 1.8   // length/width elongation filter
	arMaxLatAbs    = 75.0  // rivers don't reach the poles
)

func detectARs(fields *tensor.Tensor, sc *labelScratch) []bool {
	s := fields.Shape()
	h, w := s[1], s[2]
	iwv := fields.Data()[ChTMQ*h*w : (ChTMQ+1)*h*w]

	thresh := percentile(sc.f64, iwv, arPercentile)
	cand := sc.cand
	for y := 0; y < h; y++ {
		lat := latitude(y, h)
		// Tropics have uniformly high IWV; ARs are the filaments escaping
		// the deep-tropics reservoir, so exclude the equatorial belt.
		if math.Abs(lat) > arMaxLatAbs || math.Abs(lat) < 12 {
			continue
		}
		for x := 0; x < w; x++ {
			if float64(iwv[y*w+x]) >= thresh {
				cand[y*w+x] = true
			}
		}
	}

	// Connected components (8-connectivity, periodic in x), geometric
	// filter for elongated shapes.
	mask, seen := sc.arMask, sc.seen
	minPix := int(arMinPixelFrac * float64(h*w))
	if minPix < 8 {
		minPix = 8
	}
	var comp []int
	for start := 0; start < h*w; start++ {
		if !cand[start] || seen[start] {
			continue
		}
		comp = comp[:0]
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, i)
			y, x := i/w, i%w
			for dy := -1; dy <= 1; dy++ {
				ny := y + dy
				if ny < 0 || ny >= h {
					continue
				}
				for dx := -1; dx <= 1; dx++ {
					nx := ((x+dx)%w + w) % w
					j := ny*w + nx
					if cand[j] && !seen[j] {
						seen[j] = true
						stack = append(stack, j)
					}
				}
			}
		}
		if len(comp) < minPix {
			continue
		}
		if elongation(comp, w) < arMinElong {
			continue
		}
		for _, i := range comp {
			mask[i] = true
		}
	}
	return mask
}

// elongation estimates a component's length-to-width ratio from the square
// root of the eigenvalue ratio of its spatial covariance.
func elongation(comp []int, w int) float64 {
	n := float64(len(comp))
	var my, mx float64
	x0 := comp[0] % w
	for _, i := range comp {
		my += float64(i / w)
		mx += unwrap(i%w, x0, w)
	}
	my /= n
	mx /= n
	var syy, sxx, sxy float64
	for _, i := range comp {
		dy := float64(i/w) - my
		dx := unwrap(i%w, x0, w) - mx
		syy += dy * dy
		sxx += dx * dx
		sxy += dx * dy
	}
	syy /= n
	sxx /= n
	sxy /= n
	tr := sxx + syy
	det := sxx*syy - sxy*sxy
	disc := math.Sqrt(math.Max(0, tr*tr/4-det))
	l1 := tr/2 + disc
	l2 := tr/2 - disc
	if l2 <= 1e-9 {
		return math.Inf(1)
	}
	return math.Sqrt(l1 / l2)
}

// unwrap maps a periodic x coordinate near reference x0 to a continuous
// value so covariance works across the dateline.
func unwrap(x, x0, w int) float64 {
	d := x - x0
	if d > w/2 {
		d -= w
	} else if d < -w/2 {
		d += w
	}
	return float64(x0 + d)
}

// floodfillDisk grows mask from (cy,cx) over cells where field ≥ thresh,
// limited to a disk of maxRadius (periodic in x).
func floodfillDisk(field []float64, mask []bool, h, w, cy, cx int, thresh float64, maxRadius int) {
	type pt struct{ y, x int }
	stack := []pt{{cy, cx}}
	visited := map[pt]bool{{cy, cx}: true}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		mask[p.y*w+p.x] = true
		for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			ny := p.y + d[0]
			nx := ((p.x+d[1])%w + w) % w
			if ny < 0 || ny >= h {
				continue
			}
			dy := ny - cy
			dx := nx - cx
			if dx > w/2 {
				dx -= w
			} else if dx < -w/2 {
				dx += w
			}
			if dy*dy+dx*dx > maxRadius*maxRadius {
				continue
			}
			np := pt{ny, nx}
			if !visited[np] && field[ny*w+nx] >= thresh {
				visited[np] = true
				stack = append(stack, np)
			}
		}
	}
}

func rowMeans(field []float32, h, w int) []float64 {
	out := make([]float64, h)
	for y := 0; y < h; y++ {
		var s float64
		for x := 0; x < w; x++ {
			s += float64(field[y*w+x])
		}
		out[y] = s / float64(w)
	}
	return out
}

func isLocalMin(field []float32, h, w, y, x int) bool {
	v := field[y*w+x]
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dy == 0 && dx == 0 {
				continue
			}
			nx := ((x+dx)%w + w) % w
			if field[(y+dy)*w+nx] < v {
				return false
			}
		}
	}
	return true
}

// percentile returns the p-th (0..1) percentile of the values, sorting a
// copy of them in cp (len(vals) long).
func percentile(cp []float64, vals []float32, p float64) float64 {
	for i, v := range vals {
		cp[i] = float64(v)
	}
	sort.Float64s(cp)
	idx := int(p * float64(len(cp)-1))
	return cp[idx]
}
