// Package climate provides the data substrate the paper trains on. The
// real study uses 3.5 TB of 0.25-degree CAM5 output (1152×768 grids, 16
// atmospheric variables, 63K snapshots) labeled by the TECA toolkit and an
// IWV floodfill. Neither the simulation output nor TECA is available here,
// so this package synthesizes climate-like multichannel fields containing
// tropical cyclones (compact warm-core vortices) and atmospheric rivers
// (long moisture filaments), then labels them with the same style of
// heuristic pipeline (threshold candidates + floodfill growth). The
// generated class balance matches the paper's: ≈98% background, ≈1.7%
// atmospheric river, ≈0.1% tropical cyclone.
package climate

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Class labels, matching the paper's three segmentation classes.
const (
	ClassBackground = 0
	ClassTC         = 1 // tropical cyclone
	ClassAR         = 2 // atmospheric river
	NumClasses      = 3
)

// Channel indices of the 16 CAM5-style variables.
const (
	ChTMQ      = iota // total precipitable water (IWV) — the AR tracer
	ChPSL             // sea-level pressure — the TC tracer
	ChU850            // zonal wind, 850 hPa
	ChV850            // meridional wind, 850 hPa
	ChUBOT            // lowest-level zonal wind
	ChVBOT            // lowest-level meridional wind
	ChT200            // temperature, 200 hPa
	ChT500            // temperature, 500 hPa
	ChTS              // surface temperature
	ChPRECT           // precipitation rate
	ChZ200            // geopotential height, 200 hPa
	ChZ1000           // geopotential height, 1000 hPa
	ChQREFHT          // reference-height humidity
	ChOMEGA500        // vertical velocity, 500 hPa
	ChU250            // zonal wind, 250 hPa
	ChV250            // meridional wind, 250 hPa
	NumChannels
)

// ChannelNames lists the CAM5 variable names by channel index.
var ChannelNames = [NumChannels]string{
	"TMQ", "PSL", "U850", "V850", "UBOT", "VBOT", "T200", "T500",
	"TS", "PRECT", "Z200", "Z1000", "QREFHT", "OMEGA500", "U250", "V250",
}

// Sample is one climate snapshot with its ground-truth mask.
type Sample struct {
	Index  int
	Fields *tensor.Tensor // [NumChannels, H, W]
	Labels *tensor.Tensor // [H, W], values in {0,1,2}

	rng *rand.Rand // GenerateInto's generator, reseeded per sample
}

// GenConfig controls the synthetic climate generator.
type GenConfig struct {
	Height, Width int
	Seed          int64
	// MinTCs..MaxTCs cyclones and MinARs..MaxARs rivers per snapshot.
	MinTCs, MaxTCs int
	MinARs, MaxARs int
}

// DefaultGenConfig returns a generator tuned to the paper's class balance
// at the given grid size.
func DefaultGenConfig(h, w int, seed int64) GenConfig {
	return GenConfig{
		Height: h, Width: w, Seed: seed,
		MinTCs: 1, MaxTCs: 3,
		MinARs: 1, MaxARs: 3,
	}
}

// Generate produces snapshot `index` deterministically: the same
// (config, index) pair always yields the same sample, so distributed ranks
// can regenerate any shard without storing the dataset.
func Generate(cfg GenConfig, index int) *Sample {
	h, w := cfg.Height, cfg.Width
	s := &Sample{
		Fields: tensor.New(tensor.Shape{NumChannels, h, w}),
		Labels: tensor.New(tensor.Shape{h, w}),
	}
	GenerateInto(cfg, index, s)
	return s
}

// GenerateInto generates snapshot `index` into the sample's existing
// tensors ([NumChannels, H, W] fields and [H, W] labels), overwriting every
// element — the allocation-free path the per-rank sample prefetcher cycles
// its double buffers through. Results are bit-identical to Generate. The
// sample keeps its random generator and reseeds it in place, so a reused
// sample allocates no generator state either.
func GenerateInto(cfg GenConfig, index int, s *Sample) {
	seed := cfg.Seed*1_000_003 + int64(index)
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	} else {
		s.rng.Seed(seed)
	}
	rng := s.rng
	s.Index = index
	f := s.Fields

	genBaseClimate(f, rng)

	// Cyclones and rivers are stamped onto the fields; the heuristic
	// labeler (label.go) then recovers masks from the fields alone, like
	// TECA does for real CAM5 output.
	nTC := cfg.MinTCs + rng.Intn(cfg.MaxTCs-cfg.MinTCs+1)
	for i := 0; i < nTC; i++ {
		stampCyclone(f, rng)
	}
	nAR := cfg.MinARs + rng.Intn(cfg.MaxARs-cfg.MinARs+1)
	for i := 0; i < nAR; i++ {
		stampRiver(f, rng)
	}

	LabelInto(f, s.Labels)
}

// latitude returns the latitude in degrees of grid row y (row 0 = 90°N).
func latitude(y, h int) float64 {
	return 90 - 180*float64(y)/float64(h-1)
}

// genBaseClimate fills zonally-banded background fields with smooth noise.
func genBaseClimate(f *tensor.Tensor, rng *rand.Rand) {
	s := f.Shape()
	h, w := s[1], s[2]
	d := f.Data()
	// Each channel's noise is drawn into the channel's own plane and the
	// loop below overwrites it with the field it perturbs, so a sample
	// costs no scratch beyond its tensors.
	var noise [NumChannels][]float32
	for c := range noise {
		noise[c] = d[c*h*w : (c+1)*h*w]
		smoothNoise(noise[c], h, w, 8+c%4, rng)
	}
	at := func(c, y, x int) int { return (c*h+y)*w + x }
	for y := 0; y < h; y++ {
		lat := latitude(y, h)
		latRad := lat * math.Pi / 180
		coslat := math.Cos(latRad)
		for x := 0; x < w; x++ {
			i := y*w + x
			// Moisture peaks in the tropics (≈20 kg/m² there, ~2 poleward).
			d[at(ChTMQ, y, x)] = float32(2+18*coslat*coslat) + 2*noise[ChTMQ][i]
			// Pressure: subtropical highs, polar/equatorial lows (hPa).
			d[at(ChPSL, y, x)] = float32(1013+8*math.Cos(3*latRad)) + 2*noise[ChPSL][i]
			// Jet-stream winds: westerlies in midlatitudes, easterly trades.
			jet := 25 * math.Exp(-sq((math.Abs(lat)-40)/12))
			trade := -8 * math.Exp(-sq(lat/15))
			d[at(ChU850, y, x)] = float32(jet/2+trade) + 2*noise[ChU850][i]
			d[at(ChV850, y, x)] = 2 * noise[ChV850][i]
			d[at(ChUBOT, y, x)] = float32((jet/2+trade)*0.7) + 1.5*noise[ChUBOT][i]
			d[at(ChVBOT, y, x)] = 1.5 * noise[ChVBOT][i]
			d[at(ChU250, y, x)] = float32(jet) + 3*noise[ChU250][i]
			d[at(ChV250, y, x)] = 3 * noise[ChV250][i]
			// Temperatures (K): meridional gradient.
			d[at(ChTS, y, x)] = float32(288+14*(coslat*coslat-0.5)) + noise[ChTS][i]
			d[at(ChT500, y, x)] = float32(253+10*(coslat*coslat-0.5)) + noise[ChT500][i]
			d[at(ChT200, y, x)] = float32(218+4*(coslat*coslat-0.5)) + noise[ChT200][i]
			// Geopotential heights (m).
			d[at(ChZ1000, y, x)] = float32(100+40*math.Cos(3*latRad)) + 5*noise[ChZ1000][i]
			d[at(ChZ200, y, x)] = float32(11800+400*coslat) + 20*noise[ChZ200][i]
			// Humidity and vertical motion follow moisture.
			d[at(ChQREFHT, y, x)] = d[at(ChTMQ, y, x)]*0.0005 + 0.001*noise[ChQREFHT][i]
			d[at(ChOMEGA500, y, x)] = 0.05 * noise[ChOMEGA500][i]
			// Background precipitation: light, moisture-correlated.
			d[at(ChPRECT, y, x)] = float32(math.Max(0, float64(d[at(ChTMQ, y, x)])*0.05+
				float64(noise[ChPRECT][i])))
		}
	}
}

// cycloneParams fixes one cyclone's geometry and intensity, so sequences
// can re-stamp the same storm at advected positions across frames.
type cycloneParams struct {
	CY, CX int
	Radius float64 // grid cells
	Depth  float64 // hPa deficit
	Vmax   float64 // m/s
}

// drawCyclone samples genesis parameters: tropical bands, compact radius.
func drawCyclone(h, w int, rng *rand.Rand) cycloneParams {
	band := 5 + 25*rng.Float64()
	if rng.Intn(2) == 0 {
		band = -band
	}
	return cycloneParams{
		CY:     int((90 - band) / 180 * float64(h-1)),
		CX:     rng.Intn(w),
		Radius: float64(h) * (0.020 + 0.020*rng.Float64()),
		Depth:  35 + 25*rng.Float64(),
		Vmax:   40 + 25*rng.Float64(),
	}
}

// stampCyclone superimposes a warm-core vortex: deep PSL minimum, rotating
// winds, warm T500 anomaly, intense precipitation, elevated moisture.
func stampCyclone(f *tensor.Tensor, rng *rand.Rand) {
	s := f.Shape()
	stampCycloneParams(f, drawCyclone(s[1], s[2], rng))
}

// stampCycloneParams stamps a cyclone with explicit parameters.
func stampCycloneParams(f *tensor.Tensor, p cycloneParams) {
	s := f.Shape()
	h, w := s[1], s[2]
	cy, cx := p.CY, p.CX
	radius, depth, vmax := p.Radius, p.Depth, p.Vmax

	d := f.Data()
	at := func(c, y, x int) int { return (c*h+y)*w + x }
	reach := int(radius * 4)
	for dy := -reach; dy <= reach; dy++ {
		y := cy + dy
		if y < 0 || y >= h {
			continue
		}
		for dx := -reach; dx <= reach; dx++ {
			x := ((cx+dx)%w + w) % w // periodic in longitude
			r := math.Hypot(float64(dy), float64(dx))
			g := math.Exp(-sq(r / radius))
			if g < 1e-3 {
				continue
			}
			// Pressure deficit and warm core.
			d[at(ChPSL, y, x)] -= float32(depth * g)
			d[at(ChT500, y, x)] += float32(6 * g)
			d[at(ChT200, y, x)] += float32(3 * g)
			// Rankine-like tangential wind peaking at r≈radius.
			vt := vmax * (r / radius) * math.Exp(1-r/radius) / math.E * math.E
			if r > 0 {
				ux := -float64(dy) / r * vt
				vy := float64(dx) / r * vt
				d[at(ChU850, y, x)] += float32(ux * g * 2)
				d[at(ChV850, y, x)] += float32(vy * g * 2)
				d[at(ChUBOT, y, x)] += float32(ux * g * 1.6)
				d[at(ChVBOT, y, x)] += float32(vy * g * 1.6)
			}
			// Moisture and rain.
			d[at(ChTMQ, y, x)] += float32(25 * g)
			d[at(ChPRECT, y, x)] += float32(30 * g)
			d[at(ChOMEGA500, y, x)] -= float32(0.5 * g)
		}
	}
}

// riverParams fixes one atmospheric river's geometry for re-stamping.
type riverParams struct {
	North     bool
	Y0, Y1    int
	X0        int
	Drift     float64
	Bend      float64
	HalfWidth float64
	Boost     float64
}

// drawRiver samples an AR arcing from the tropics poleward.
func drawRiver(h, w int, rng *rand.Rand) riverParams {
	north := rng.Intn(2) == 0
	lat0 := 10 + 10*rng.Float64()
	lat1 := 40 + 15*rng.Float64()
	if !north {
		lat0, lat1 = -lat0, -lat1
	}
	// Draw order matters: it preserves the rng stream (and therefore every
	// deterministic dataset) of the pre-refactor generator.
	x0 := rng.Intn(w)
	drift := float64(w) * (0.15 + 0.25*rng.Float64())
	return riverParams{
		North:     north,
		Y0:        int((90 - lat0) / 180 * float64(h-1)),
		Y1:        int((90 - lat1) / 180 * float64(h-1)),
		X0:        x0,
		Drift:     drift,
		Bend:      (rng.Float64() - 0.5) * drift,
		HalfWidth: float64(h) * (0.012 + 0.012*rng.Float64()),
		Boost:     28 + 10*rng.Float64(),
	}
}

// stampRiver superimposes an atmospheric river: a long, narrow filament of
// very high integrated water vapor arcing from the tropics poleward.
func stampRiver(f *tensor.Tensor, rng *rand.Rand) {
	s := f.Shape()
	stampRiverParams(f, drawRiver(s[1], s[2], rng))
}

// stampRiverParams stamps an AR with explicit parameters.
func stampRiverParams(f *tensor.Tensor, p riverParams) {
	s := f.Shape()
	h, w := s[1], s[2]
	d := f.Data()
	at := func(c, y, x int) int { return (c*h+y)*w + x }

	north := p.North
	y0, y1, x0 := p.Y0, p.Y1, p.X0
	drift, bend := p.Drift, p.Bend
	halfWidth, boost := p.HalfWidth, p.Boost

	steps := 4 * (absInt(y1-y0) + 1)
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		cy := float64(y0) + (float64(y1)-float64(y0))*t
		cx := float64(x0) + drift*t + bend*t*(1-t)*4
		reach := int(halfWidth * 3)
		// Taper the intensity toward the endpoints.
		taper := math.Sin(math.Pi * math.Min(1, 0.15+0.85*math.Min(t, 1-t)*2))
		for dy := -reach; dy <= reach; dy++ {
			y := int(cy) + dy
			if y < 0 || y >= h {
				continue
			}
			for dx := -reach; dx <= reach; dx++ {
				x := ((int(cx)+dx)%w + w) % w
				r := math.Hypot(float64(dy), float64(dx))
				g := math.Exp(-sq(r/halfWidth)) * taper / 4
				if g < 1e-3 {
					continue
				}
				idx := at(ChTMQ, y, x)
				add := float32(boost * g)
				// Saturating add keeps overlapping passes from blowing up.
				if d[idx] < float32(boost+20) {
					d[idx] += add
				}
				d[at(ChPRECT, y, x)] += float32(4 * g)
				d[at(ChQREFHT, y, x)] += float32(0.004 * g)
				d[at(ChV850, y, x)] += float32(12 * g * signFloat(north))
			}
		}
	}
}

func sq(x float64) float64 { return x * x }

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func signFloat(north bool) float64 {
	if north {
		return 1
	}
	return -1
}

// smoothNoise fills out with h×w values in roughly [-1,1] with spatial
// coherence: bilinear interpolation of a coarse random lattice.
func smoothNoise(out []float32, h, w, cells int, rng *rand.Rand) {
	gh, gw := cells+2, cells+2
	var buf [13 * 13]float64 // every call site has cells ≤ 11: the lattice stays on the stack
	lattice := buf[:]
	if gh*gw > len(buf) {
		lattice = make([]float64, gh*gw)
	}
	lattice = lattice[:gh*gw]
	for i := range lattice {
		lattice[i] = rng.Float64()*2 - 1
	}
	for y := 0; y < h; y++ {
		fy := float64(y) / float64(h) * float64(cells)
		iy := int(fy)
		ty := fy - float64(iy)
		for x := 0; x < w; x++ {
			fx := float64(x) / float64(w) * float64(cells)
			ix := int(fx)
			tx := fx - float64(ix)
			v00 := lattice[iy*gw+ix]
			v01 := lattice[iy*gw+ix+1]
			v10 := lattice[(iy+1)*gw+ix]
			v11 := lattice[(iy+1)*gw+ix+1]
			out[y*w+x] = float32(v00*(1-ty)*(1-tx) + v01*(1-ty)*tx +
				v10*ty*(1-tx) + v11*ty*tx)
		}
	}
}
