package portmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// relErr returns |a-b| / |b|, treating b == 0 specially.
func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestLog2AgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100000; i++ {
		// Random finite positive values across the full exponent range.
		x := math.Float64frombits(uint64(rng.Int63n(0x7FF0)) << 48 >> 0 & 0x7FEFFFFFFFFFFFFF)
		x = math.Abs(x)
		if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
			continue
		}
		got := Log2(x)
		want := math.Log2(x)
		// Absolute error matters for bin indices; allow a small slack in
		// ULP-of-result terms.
		if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Fatalf("Log2(%g) = %.17g, want %.17g", x, got, want)
		}
	}
}

func TestLog2Exact(t *testing.T) {
	for e := -1022; e <= 1023; e += 13 {
		x := math.Ldexp(1, e)
		if got := Log2(x); got != float64(e) {
			t.Errorf("Log2(2^%d) = %g, want %d", e, got, e)
		}
	}
	if got := Log2(1); got != 0 {
		t.Errorf("Log2(1) = %g, want 0", got)
	}
}

func TestLog2Denormal(t *testing.T) {
	x := math.Float64frombits(1) // smallest positive denormal = 2^-1074
	got := Log2(x)
	if math.Abs(got-(-1074)) > 1e-9 {
		t.Errorf("Log2(min denormal) = %g, want -1074", got)
	}
}

func TestExp2AgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		x := (rng.Float64() - 0.5) * 2000 // spans most of the binade range
		got := Exp2(x)
		want := math.Exp2(x)
		if want == 0 || math.IsInf(want, 0) {
			if got != want {
				t.Fatalf("Exp2(%g) = %g, want %g", x, got, want)
			}
			continue
		}
		if relErr(got, want) > 1e-13 {
			t.Fatalf("Exp2(%g) = %.17g, want %.17g (rel %g)", x, got, want, relErr(got, want))
		}
	}
}

func TestExp2Exact(t *testing.T) {
	for e := -1022; e <= 1023; e += 7 {
		if got, want := Exp2(float64(e)), math.Ldexp(1, e); got != want {
			t.Errorf("Exp2(%d) = %g, want %g", e, got, want)
		}
	}
}

func TestExp2Saturation(t *testing.T) {
	if got := Exp2(5000); !math.IsInf(got, 1) {
		t.Errorf("Exp2(5000) = %g, want +Inf", got)
	}
	if got := Exp2(-5000); got != 0 {
		t.Errorf("Exp2(-5000) = %g, want 0", got)
	}
	nan := math.NaN()
	if got := Exp2(nan); !math.IsNaN(got) {
		t.Errorf("Exp2(NaN) = %g, want NaN", got)
	}
}

func TestExp2Log2Roundtrip(t *testing.T) {
	f := func(u uint64) bool {
		x := math.Float64frombits(u & 0x7FEFFFFFFFFFFFFF) // positive finite
		if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		y := Exp2(Log2(x))
		return relErr(y, x) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestScalb(t *testing.T) {
	cases := []struct {
		y    float64
		n    int64
		want float64
	}{
		{1, 0, 1},
		{1, 10, 1024},
		{1.5, -1, 0.75},
		{1, 1024, math.Inf(1)},
		{1, -1080, 0},
		{1, -1074, math.Float64frombits(1)},
		{-1, 3, -8},
	}
	for _, c := range cases {
		if got := Scalb(c.y, c.n); got != c.want {
			t.Errorf("Scalb(%g, %d) = %g, want %g", c.y, c.n, got, c.want)
		}
	}
	// Cross-check against math.Ldexp on random normal results.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		y := rng.Float64() + 0.5
		n := int64(rng.Intn(4000) - 2000)
		got := Scalb(y, n)
		want := math.Ldexp(y, int(n))
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			// Stepwise scaling may double-round only when passing through
			// the denormal range; tolerate one-ULP differences there.
			if want != 0 && !math.IsInf(want, 0) && math.Abs(got-want) <= math.Abs(want)*1e-15 {
				continue
			}
			if math.Float64bits(want)&0x7FF0000000000000 == 0 { // denormal
				diff := math.Abs(got - want)
				if diff <= math.Float64frombits(1)*2 {
					continue
				}
			}
			t.Fatalf("Scalb(%g, %d) = %g, want %g", y, n, got, want)
		}
	}
}

func TestRoundToInt(t *testing.T) {
	cases := []struct {
		x    float64
		want int64
	}{
		{0, 0}, {0.4, 0}, {0.5, 1}, {0.6, 1}, {1.5, 2},
		{-0.4, 0}, {-0.5, -1}, {-0.6, -1}, {-1.5, -2},
		{1e15, 1000000000000000},
	}
	for _, c := range cases {
		if got := RoundToInt(c.x); got != c.want {
			t.Errorf("RoundToInt(%g) = %d, want %d", c.x, got, c.want)
		}
	}
}

// pinnedLog2 and pinnedExp2 are {input, output} bit patterns taken from the
// unfused IEEE evaluation. A build whose compiler fuses a Horner step into
// a multiply-add, or whose reduction drifts, changes some of these bits;
// running this test on each target architecture catches it.
var pinnedLog2 = [][2]uint64{
	{0x3ff0000000000000, 0x0000000000000000}, // 1
	{0x4000000000000000, 0x3ff0000000000000}, // 2
	{0x4008000000000000, 0x3ff95c01a39fbd69}, // 3
	{0x3fb999999999999a, 0xc00a934f0979a371}, // 0.1
	{0x3fe6666666666666, 0xbfe0776228967d12}, // 0.7
	{0x3ff8000000000000, 0x3fe2b803473f7ad2}, // 1.5
	{0x3ff6a09e667f3bcd, 0x3fe0000000000001}, // 1.4142135623730951
	{0x3ff6a09e667f3bce, 0x3fe0000000000003}, // 1.4142135623730954
	{0x400921fb54442d18, 0x3ffa6c873498ddf7}, // 3.141592653589793
	{0x4005bf0a8b145769, 0x3ff71547652b82fe}, // 2.718281828459045
	{0x405edd2f1a9fbe77, 0x401bca9a03b1083a}, // 123.456
	{0x01a56e1fc2f8f359, 0xc08f24a09f1a8b89}, // 1e-300
	{0x7e37e43c8800759c, 0x408f24a09f1a8b89}, // 1e+300
	{0x7fefffffffffffff, 0x4090000000000000}, // 1.7976931348623157e+308
	{0x0000000000000001, 0xc090c80000000000}, // 5e-324
	{0x00003739a252b281, 0xc09010d9da53be06}, // 3e-310
	{0x3ff000001ad7f29b, 0x3e835d0fea5fccb7}, // 1.0000001
	{0x3feffffffaa19c47, 0xbe4efb4cc918639f}, // 0.99999999
	{0x3ff00068db8bac71, 0x3f22e8a3a5041f41}, // 1.0001
	{0x3ff028f5c28f5c29, 0x3f8d664ecee35b7f}, // 1.01
	{0x44dfe185ca57c517, 0x4053bfa7e599a930}, // 6.02214076e+23
	{0x380fffffff9fdba8, 0xc05f800000011568}, // 1.17549435e-38
}

var pinnedExp2 = [][2]uint64{
	{0x0000000000000000, 0x3ff0000000000000}, // 0
	{0x3fe0000000000000, 0x3ff6a09e667f3bcc}, // 0.5
	{0xbfe0000000000000, 0x3fe6a09e667f3bcc}, // -0.5
	{0x3ddb7cdfd9d7bdbb, 0x3ff000000004c366}, // 1e-10
	{0x400a666666666666, 0x4023b2c47bff8328}, // 3.3
	{0xc01ecccccccccccd, 0x3f73b2c47bff8328}, // -7.7
	{0x4059100000000000, 0x463306fe0a31b715}, // 100.25
	{0xc08f426666666666, 0x0169fdf8bcce5424}, // -1000.3
	{0x408fff3333333333, 0x7feddb680117aa8e}, // 1023.9
	{0xc090ca0000000000, 0x0000000000000001}, // -1074.5
	{0x3fd62e33eff19503, 0x3ff45833ffd0fdd1}, // 0.34657
	{0xc09090cccccccccd, 0x00000000000037b7}, // -1060.2
	{0x4090020000000000, 0x7ff0000000000000}, // 1024.5
	{0xc090e00000000000, 0x0000000000000000}, // -1080
	{0x407632d91148fda0, 0x562219d915393aae}, // 355.177995
	{0xbff3f21bc126a65d, 0x3fdaf8d618fa4eab}, // -1.2466085
	{0x3fd0000000000000, 0x3ff306fe0a31b715}, // 0.25
	{0xbfdffffff543388f, 0x3fe6a09e6920dca2}, // -0.49999999
	{0x4031800000000000, 0x4106a09e667f3bcc}, // 17.5
}

func TestPinnedBits(t *testing.T) {
	for _, c := range pinnedLog2 {
		x := math.Float64frombits(c[0])
		if got := math.Float64bits(Log2(x)); got != c[1] {
			t.Errorf("Log2(%g) = %#016x, want %#016x", x, got, c[1])
		}
	}
	for _, c := range pinnedExp2 {
		x := math.Float64frombits(c[0])
		if got := math.Float64bits(Exp2(x)); got != c[1] {
			t.Errorf("Exp2(%g) = %#016x, want %#016x", x, got, c[1])
		}
	}
}

// TestFourLaneMatchesScalar checks Log2x4 and Exp2x4 lane by lane against
// the scalar functions, with special and out-of-range arguments mixed into
// the Exp2x4 lanes so its scalar fallback is exercised too.
func TestFourLaneMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var lx, ex []float64
	for _, c := range pinnedLog2 {
		lx = append(lx, math.Float64frombits(c[0]))
	}
	for _, c := range pinnedExp2 {
		ex = append(ex, math.Float64frombits(c[0]))
	}
	ex = append(ex, math.NaN(), math.Inf(1), math.Inf(-1), 1025, -1076, 1024.999, -1075.999)
	for i := 0; i < 20000; i++ {
		lx = append(lx, math.Float64frombits(rng.Uint64()&^(1<<63)%0x7FF0000000000000+1))
		ex = append(ex, (rng.Float64()-0.5)*2200)
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
	}
	for i := 0; i+4 <= len(lx); i++ {
		var got [4]float64
		got[0], got[1], got[2], got[3] = Log2x4(lx[i], lx[i+1], lx[i+2], lx[i+3])
		for j, g := range got {
			if want := Log2(lx[i+j]); !same(g, want) {
				t.Fatalf("Log2x4 lane %d: Log2(%g) = %#x, want %#x", j, lx[i+j], math.Float64bits(g), math.Float64bits(want))
			}
		}
	}
	for i := 0; i+4 <= len(ex); i++ {
		var got [4]float64
		got[0], got[1], got[2], got[3] = Exp2x4(ex[i], ex[i+1], ex[i+2], ex[i+3])
		for j, g := range got {
			if want := Exp2(ex[i+j]); !same(g, want) {
				t.Fatalf("Exp2x4 lane %d: Exp2(%g) = %#x, want %#x", j, ex[i+j], math.Float64bits(g), math.Float64bits(want))
			}
		}
	}
}

func BenchmarkLog2(b *testing.B) {
	x := 1.2345678
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Log2(x)
	}
	_ = sink
}

func BenchmarkExp2(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Exp2(12.345)
	}
	_ = sink
}

func BenchmarkLog2x4(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		y0, y1, y2, y3 := Log2x4(1.2345678, 3.5, 0.01, 77.7)
		sink += y0 + y1 + y2 + y3
	}
	_ = sink
}

func BenchmarkExp2x4(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		y0, y1, y2, y3 := Exp2x4(12.345, -3.25, 0.125, 99.5)
		sink += y0 + y1 + y2 + y3
	}
	_ = sink
}
