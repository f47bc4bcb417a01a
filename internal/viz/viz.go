// Package viz renders climate fields and segmentation masks as images —
// the Fig 7 deliverable: storm masks (tropical cyclones in red, atmospheric
// rivers in blue) overlaid on the integrated-water-vapor field drawn with
// the paper's white→yellow colormap, plus side-by-side prediction/label
// comparison panels.
package viz

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"os"

	"repro/internal/climate"
	"repro/internal/tensor"
)

// Class colors follow the paper's Fig 7: ARs blue, TCs red.
var (
	colorTC = color.RGBA{R: 220, G: 40, B: 40, A: 255}
	colorAR = color.RGBA{R: 50, G: 90, B: 220, A: 255}
)

// FieldImage renders a [H, W] scalar field with the paper's white→yellow
// IWV colormap, normalizing between the field's min and max.
func FieldImage(field *tensor.Tensor) (*image.RGBA, error) {
	fs := field.Shape()
	if fs.Rank() != 2 {
		return nil, fmt.Errorf("viz: field must be [H,W], got %v", fs)
	}
	h, w := fs[0], fs[1]
	lo, hi := minMax(field.Data())
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			t := normalize(float64(field.At(y, x)), lo, hi)
			img.SetRGBA(x, y, whiteToYellow(t))
		}
	}
	return img, nil
}

// maskImage renders a [H, W] class-label mask on a transparent background:
// background pixels are fully transparent, storm classes use the Fig 7
// palette.
func maskImage(labels *tensor.Tensor) (*image.RGBA, error) {
	ls := labels.Shape()
	if ls.Rank() != 2 {
		return nil, fmt.Errorf("viz: labels must be [H,W], got %v", ls)
	}
	h, w := ls[0], ls[1]
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			switch int(labels.At(y, x)) {
			case climate.ClassTC:
				img.SetRGBA(x, y, colorTC)
			case climate.ClassAR:
				img.SetRGBA(x, y, colorAR)
			}
		}
	}
	return img, nil
}

// Overlay composites a mask over a field rendering (alpha-blended at the
// given opacity in [0,1]) — the Fig 7a presentation.
func Overlay(field, labels *tensor.Tensor, opacity float64) (*image.RGBA, error) {
	if opacity < 0 || opacity > 1 {
		return nil, fmt.Errorf("viz: opacity %v outside [0,1]", opacity)
	}
	base, err := FieldImage(field)
	if err != nil {
		return nil, err
	}
	mask, err := maskImage(labels)
	if err != nil {
		return nil, err
	}
	if !base.Rect.Eq(mask.Rect) {
		return nil, fmt.Errorf("viz: field %v and labels %v sizes differ", base.Rect, mask.Rect)
	}
	for y := base.Rect.Min.Y; y < base.Rect.Max.Y; y++ {
		for x := base.Rect.Min.X; x < base.Rect.Max.X; x++ {
			m := mask.RGBAAt(x, y)
			if m.A == 0 {
				continue
			}
			b := base.RGBAAt(x, y)
			base.SetRGBA(x, y, blend(b, m, opacity))
		}
	}
	return base, nil
}

// Comparison renders the Fig 7b inset: the predicted mask filled in color,
// the reference-label boundary drawn in black on top.
func Comparison(field, pred, truth *tensor.Tensor, opacity float64) (*image.RGBA, error) {
	img, err := Overlay(field, pred, opacity)
	if err != nil {
		return nil, err
	}
	ts := truth.Shape()
	if ts.Rank() != 2 || ts[0] != img.Rect.Dy() || ts[1] != img.Rect.Dx() {
		return nil, fmt.Errorf("viz: truth shape %v does not match image", ts)
	}
	black := color.RGBA{A: 255}
	h, w := ts[0], ts[1]
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if int(truth.At(y, x)) == climate.ClassBackground {
				continue
			}
			if onBoundary(truth, y, x, h, w) {
				img.SetRGBA(x, y, black)
			}
		}
	}
	return img, nil
}

// onBoundary reports whether (y,x) is a labeled pixel with at least one
// 4-connected neighbour of a different class (longitude-periodic).
func onBoundary(labels *tensor.Tensor, y, x, h, w int) bool {
	c := labels.At(y, x)
	if y > 0 && labels.At(y-1, x) != c {
		return true
	}
	if y < h-1 && labels.At(y+1, x) != c {
		return true
	}
	if labels.At(y, (x+w-1)%w) != c || labels.At(y, (x+1)%w) != c {
		return true
	}
	return false
}

// DrawTrack draws one storm trajectory onto an image as a polyline in the
// class color (TCs red, ARs blue), wrapping x across the dateline, with a
// filled square marking the most recent position. centroids are (y, x)
// pairs with x possibly unwrapped beyond the grid width.
func DrawTrack(img *image.RGBA, centroids [][2]float64, class int) {
	if len(centroids) == 0 {
		return
	}
	col := colorTC
	if class == climate.ClassAR {
		col = colorAR
	}
	w := img.Rect.Dx()
	for i := 1; i < len(centroids); i++ {
		drawSegment(img, centroids[i-1], centroids[i], col, w)
	}
	head := centroids[len(centroids)-1]
	hy, hx := int(math.Round(head[0])), wrapPx(head[1], w)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			setWrapped(img, hy+dy, hx+dx, col, w)
		}
	}
}

// drawSegment rasterizes one trajectory edge by uniform stepping; segment
// endpoints are frame-to-frame centroid moves, so they are short and the x
// coordinates share one unwrapped frame of reference.
func drawSegment(img *image.RGBA, a, b [2]float64, col color.RGBA, w int) {
	dy, dx := b[0]-a[0], b[1]-a[1]
	steps := int(math.Max(math.Abs(dy), math.Abs(dx))) + 1
	for s := 0; s <= steps; s++ {
		t := float64(s) / float64(steps)
		y := int(math.Round(a[0] + t*dy))
		x := wrapPx(a[1]+t*dx, w)
		setWrapped(img, y, x, col, w)
	}
}

func wrapPx(x float64, w int) int {
	i := int(math.Round(x)) % w
	if i < 0 {
		i += w
	}
	return i
}

func setWrapped(img *image.RGBA, y, x int, col color.RGBA, w int) {
	if y < img.Rect.Min.Y || y >= img.Rect.Max.Y {
		return
	}
	x = ((x % w) + w) % w
	img.SetRGBA(x, y, col)
}

// SavePNG writes an image to a file.
func SavePNG(path string, img image.Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := png.Encode(f, img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func minMax(d []float32) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range d {
		f := float64(v)
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return lo, hi
}

func normalize(v, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	return (v - lo) / (hi - lo)
}

// whiteToYellow maps t∈[0,1] to the paper's IWV colormap: low values white,
// high values saturated yellow-orange.
func whiteToYellow(t float64) color.RGBA {
	t = math.Max(0, math.Min(1, t))
	r := 255.0
	g := 255 - 90*t
	b := 255 - 225*t
	return color.RGBA{R: uint8(r), G: uint8(g), B: uint8(b), A: 255}
}

func blend(base, over color.RGBA, opacity float64) color.RGBA {
	mix := func(b, o uint8) uint8 {
		return uint8(float64(b)*(1-opacity) + float64(o)*opacity)
	}
	return color.RGBA{
		R: mix(base.R, over.R),
		G: mix(base.G, over.G),
		B: mix(base.B, over.B),
		A: 255,
	}
}
