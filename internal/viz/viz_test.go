package viz

import (
	"image/png"
	"os"
	"testing"

	"repro/internal/climate"
	"repro/internal/tensor"
)

func labelTensor(h, w int, set map[[2]int]int) *tensor.Tensor {
	t := tensor.New(tensor.Shape{h, w})
	for yx, c := range set {
		t.Set(float32(c), yx[0], yx[1])
	}
	return t
}

func TestFieldImageNormalizesRange(t *testing.T) {
	f := tensor.New(tensor.Shape{2, 2})
	f.Set(0, 0, 0)
	f.Set(10, 1, 1)
	img, err := FieldImage(f)
	if err != nil {
		t.Fatal(err)
	}
	low := img.RGBAAt(0, 0)
	high := img.RGBAAt(1, 1)
	if low.R != 255 || low.G != 255 || low.B != 255 {
		t.Errorf("min value should render white, got %v", low)
	}
	if high.B >= low.B || high.G >= low.G {
		t.Errorf("max value should be yellower than min: %v vs %v", high, low)
	}
}

func TestFieldImageConstantField(t *testing.T) {
	f := tensor.Full(tensor.Shape{3, 3}, 5)
	img, err := FieldImage(f)
	if err != nil {
		t.Fatal(err)
	}
	// Degenerate range must not divide by zero; everything renders white.
	c := img.RGBAAt(1, 1)
	if c.R != 255 || c.G != 255 || c.B != 255 {
		t.Errorf("constant field pixel %v, want white", c)
	}
}

func TestFieldImageRejectsWrongRank(t *testing.T) {
	if _, err := FieldImage(tensor.New(tensor.Shape{2, 2, 2})); err == nil {
		t.Error("rank-3 field should be rejected")
	}
}

func TestMaskImageColors(t *testing.T) {
	labels := labelTensor(4, 4, map[[2]int]int{
		{0, 0}: climate.ClassTC,
		{1, 1}: climate.ClassAR,
	})
	img, err := maskImage(labels)
	if err != nil {
		t.Fatal(err)
	}
	if img.RGBAAt(0, 0) != colorTC {
		t.Errorf("TC pixel rendered %v", img.RGBAAt(0, 0))
	}
	if img.RGBAAt(1, 1) != colorAR {
		t.Errorf("AR pixel rendered %v", img.RGBAAt(1, 1))
	}
	if img.RGBAAt(2, 2).A != 0 {
		t.Errorf("background pixel should be transparent, got %v", img.RGBAAt(2, 2))
	}
}

func TestOverlayBlendsOnlyMaskedPixels(t *testing.T) {
	field := tensor.New(tensor.Shape{3, 3}) // all zero → white base
	labels := labelTensor(3, 3, map[[2]int]int{{1, 1}: climate.ClassTC})
	img, err := Overlay(field, labels, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	bg := img.RGBAAt(0, 0)
	if bg.R != 255 || bg.G != 255 || bg.B != 255 {
		t.Errorf("unmasked pixel should stay field-colored, got %v", bg)
	}
	tc := img.RGBAAt(1, 1)
	if tc.R == 255 && tc.G == 255 && tc.B == 255 {
		t.Error("masked pixel did not blend")
	}
	if tc.R <= tc.B {
		t.Errorf("TC blend should be red-dominant, got %v", tc)
	}
}

func TestOverlayValidation(t *testing.T) {
	field := tensor.New(tensor.Shape{3, 3})
	labels := tensor.New(tensor.Shape{3, 3})
	if _, err := Overlay(field, labels, 1.5); err == nil {
		t.Error("opacity > 1 should be rejected")
	}
	if _, err := Overlay(field, tensor.New(tensor.Shape{2, 2}), 0.5); err == nil {
		t.Error("size mismatch should be rejected")
	}
}

func TestComparisonDrawsTruthBoundary(t *testing.T) {
	field := tensor.New(tensor.Shape{5, 5})
	pred := tensor.New(tensor.Shape{5, 5})
	// Truth: a 3×3 AR block; its ring is boundary, its center interior.
	truth := tensor.New(tensor.Shape{5, 5})
	for y := 1; y <= 3; y++ {
		for x := 1; x <= 3; x++ {
			truth.Set(float32(climate.ClassAR), y, x)
		}
	}
	img, err := Comparison(field, pred, truth, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	edge := img.RGBAAt(1, 1)
	if edge.R != 0 || edge.G != 0 || edge.B != 0 {
		t.Errorf("truth boundary pixel should be black, got %v", edge)
	}
	center := img.RGBAAt(2, 2)
	if center.R == 0 && center.G == 0 && center.B == 0 {
		t.Error("interior truth pixel should not be outlined")
	}
}

func TestComparisonShapeMismatch(t *testing.T) {
	field := tensor.New(tensor.Shape{3, 3})
	pred := tensor.New(tensor.Shape{3, 3})
	if _, err := Comparison(field, pred, tensor.New(tensor.Shape{4, 4}), 0.5); err == nil {
		t.Error("truth shape mismatch should be rejected")
	}
}

func TestWritePNGRoundTrip(t *testing.T) {
	ds := climate.NewDataset(climate.DefaultGenConfig(24, 32, 5), 1)
	s := ds.Sample(0)
	iwv := tensor.FromSlice(tensor.Shape{24, 32}, s.Fields.Data()[:24*32])
	img, err := Overlay(iwv, s.Labels, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/out.png"
	if err := SavePNG(path, img); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	decoded, err := png.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if b := decoded.Bounds(); b.Dx() != 32 || b.Dy() != 24 {
		t.Errorf("decoded size %dx%d, want 32x24", b.Dx(), b.Dy())
	}
}

func TestSavePNG(t *testing.T) {
	img, err := FieldImage(tensor.New(tensor.Shape{4, 4}))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/out.png"
	if err := SavePNG(path, img); err != nil {
		t.Fatal(err)
	}
	if err := SavePNG(t.TempDir()+"/nosuchdir/x.png", img); err == nil {
		// os.Create fails on the missing directory — the error must surface.
		t.Error("expected error for unwritable path")
	}
}

func TestOnBoundaryWrapsLongitude(t *testing.T) {
	// A mask touching the dateline: pixel at x=0 with a different class at
	// x=w-1 is a boundary via the periodic edge.
	labels := labelTensor(1, 4, map[[2]int]int{{0, 0}: climate.ClassAR})
	if !onBoundary(labels, 0, 0, 1, 4) {
		t.Error("dateline-adjacent pixel should be boundary")
	}
	uniform := tensor.Full(tensor.Shape{1, 4}, float32(climate.ClassAR))
	if onBoundary(uniform, 0, 2, 1, 4) {
		t.Error("uniform row has no boundaries")
	}
}
