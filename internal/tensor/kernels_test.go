package tensor

import (
	"math"
	"testing"

	"decepticon/internal/rng"
)

// specials are the operands whose rounding and propagation differ most
// between careless implementations: NaN, both infinities, negative zero,
// the smallest and largest subnormals, and values whose products
// underflow into or overflow out of the normal range.
var specials = []float32{
	float32(math.NaN()),
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	float32(math.Copysign(0, -1)),
	0,
	math.Float32frombits(0x00000001),
	math.Float32frombits(0x807fffff),
	math.Float32frombits(0x00800000),
	1e-30,
	-3e38,
	3e38,
}

// kernelInput returns n values: Gaussian, with every fifth replaced by a
// special when withSpecials is set.
func kernelInput(r *rng.RNG, n int, withSpecials bool) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = r.Normal(0, 1)
		if withSpecials && r.Intn(5) == 0 {
			v[i] = specials[r.Intn(len(specials))]
		}
	}
	return v
}

// sameBits returns the first index where a and b differ in bit pattern,
// or -1. Any two NaNs match: when two NaN operands meet, the hardware
// keeps the first one's sign and payload, and the Go compiler orders
// commutative operands as register allocation suits it (dot and dot4Go
// already disagree there), so Go leaves which NaN comes out unspecified.
// Every non-NaN result, -0 and subnormals included, must match exactly.
func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return i
		}
	}
	return -1
}

// sameMatrix is bitEqual with sameBits's NaN rule.
func sameMatrix(a, b *Matrix) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && sameBits(a.Data, b.Data) < 0
}

// TestAxpy4MatchesReference compares the dispatched axpy4 with the Go
// reference bit for bit at every length 0..67 (every tail length, with
// and without full vector groups), on plain and special-laden operands,
// and with a zero (either sign) in each scalar position — the skip that
// must stay in Go.
func TestAxpy4MatchesReference(t *testing.T) {
	r := rng.New(3)
	negZero := float32(math.Copysign(0, -1))
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 8; trial++ {
			withSpecials := trial%2 == 1
			dst := kernelInput(r, n, withSpecials)
			var a [4][]float32
			for i := range a {
				a[i] = kernelInput(r, n, withSpecials)
			}
			s := [4]float32{r.Normal(0, 1), r.Normal(0, 1), r.Normal(0, 1), r.Normal(0, 1)}
			switch trial / 2 {
			case 1:
				s[r.Intn(4)] = 0
			case 2:
				s[r.Intn(4)] = negZero
			case 3:
				s[r.Intn(4)] = specials[r.Intn(len(specials))]
			}
			got := append([]float32(nil), dst...)
			want := append([]float32(nil), dst...)
			axpy4(got, a[0], a[1], a[2], a[3], s[0], s[1], s[2], s[3])
			axpy4Go(want, a[0], a[1], a[2], a[3], s[0], s[1], s[2], s[3])
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("n=%d trial=%d s=%v: dst[%d] = %#08x, reference %#08x",
					n, trial, s, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	// Each scalar position zeroed in turn against infinite operands: the
	// skipped lane must not turn 0×Inf into NaN.
	for pos := 0; pos < 4; pos++ {
		n := 9
		dst := make([]float32, n)
		var a [4][]float32
		s := [4]float32{1, 2, 3, 4}
		s[pos] = 0
		for i := range a {
			a[i] = make([]float32, n)
			for j := range a[i] {
				a[i][j] = 1
				if i == pos {
					a[i][j] = float32(math.Inf(1))
				}
			}
		}
		axpy4(dst, a[0], a[1], a[2], a[3], s[0], s[1], s[2], s[3])
		for j, v := range dst {
			if v != 10-float32(pos+1) {
				t.Fatalf("zero scalar at %d: dst[%d] = %v, want %v", pos, j, v, 10-float32(pos+1))
			}
		}
	}
}

// TestDot4MatchesReference compares the dispatched dot4 with the Go
// reference bit for bit at every length 0..67 on plain and special-laden
// operands.
func TestDot4MatchesReference(t *testing.T) {
	r := rng.New(4)
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 6; trial++ {
			withSpecials := trial%2 == 1
			a := kernelInput(r, n, withSpecials)
			var b [4][]float32
			for i := range b {
				b[i] = kernelInput(r, n, withSpecials)
			}
			var got, want [4]float32
			got[0], got[1], got[2], got[3] = dot4(a, b[0], b[1], b[2], b[3])
			want[0], want[1], want[2], want[3] = dot4Go(a, b[0], b[1], b[2], b[3])
			if i := sameBits(got[:], want[:]); i >= 0 {
				t.Fatalf("n=%d trial=%d: r%d = %#08x, reference %#08x",
					n, trial, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
			// And against four plain dot calls, the definition dot4 keeps.
			for i := range b {
				if d := dot(a, b[i]); sameBits([]float32{d}, got[i:i+1]) >= 0 {
					t.Fatalf("n=%d trial=%d: r%d = %#08x, dot %#08x", n, trial, i, math.Float32bits(got[i]), math.Float32bits(d))
				}
			}
		}
	}
}

// TestIntoVariantsBitIdentical checks MatMulInto/MatMulNTInto/
// MatMulTNInto against the allocating forms and AddMatMulTN against
// AddInPlace(g, MatMulTN(a, b)), reusing one dst across shrinking and
// growing shapes (stale contents must not leak into a result) and
// feeding zeros, negative zeros and specials through the skip paths.
func TestIntoVariantsBitIdentical(t *testing.T) {
	r := rng.New(5)
	shapes := [][3]int{ // m, k, n
		{4, 8, 12}, {5, 7, 3}, {1, 1, 1}, {3, 4, 9}, {16, 24, 48},
		{2, 13, 6}, {12, 6, 6}, {6, 16, 16}, {3, 5, 130}, {0, 3, 4}, {4, 0, 3},
	}
	var dst, dstNT, dstTN *Matrix
	for trial := 0; trial < 3; trial++ {
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			a := FromSlice(m, k, kernelInput(r, m*k, trial == 2))
			b := FromSlice(k, n, kernelInput(r, k*n, trial == 2))
			if trial >= 1 {
				for i := range a.Data {
					switch i % 5 {
					case 0:
						a.Data[i] = 0
					case 3:
						a.Data[i] = float32(math.Copysign(0, -1))
					}
				}
			}
			dst = MatMulInto(dst, a, b)
			if want := MatMul(a, b); !sameMatrix(dst, want) {
				t.Fatalf("trial %d %v: MatMulInto differs from MatMul", trial, sh)
			}
			if want := naiveMatMul(a, b); !sameMatrix(dst, want) {
				t.Fatalf("trial %d %v: MatMulInto differs from the scalar loop", trial, sh)
			}
			bt := b.Transpose()
			dstNT = MatMulNTInto(dstNT, a, bt)
			if want := naiveMatMulNT(a, bt); !sameMatrix(dstNT, want) {
				t.Fatalf("trial %d %v: MatMulNTInto differs from the scalar loop", trial, sh)
			}
			at := a.Transpose()
			dstTN = MatMulTNInto(dstTN, at, b)
			if want := naiveMatMulTN(at, b); !sameMatrix(dstTN, want) {
				t.Fatalf("trial %d %v: MatMulTNInto differs from the scalar loop", trial, sh)
			}
			if want := MatMulTN(at, b); !sameMatrix(dstTN, want) {
				t.Fatalf("trial %d %v: MatMulTNInto differs from MatMulTN", trial, sh)
			}
			// g += aᵀb on a pre-filled g, including -0 entries a plain
			// accumulation would have to preserve.
			g := FromSlice(k, n, kernelInput(r, k*n, trial == 2))
			for i := 0; i < len(g.Data); i += 7 {
				g.Data[i] = float32(math.Copysign(0, -1))
			}
			lhs := FromSlice(m, k, kernelInput(r, m*k, trial == 2))
			rhs := FromSlice(m, n, kernelInput(r, m*n, trial == 2))
			want := g.Clone()
			AddInPlace(want, MatMulTN(lhs, rhs))
			AddMatMulTN(g, lhs, rhs)
			if !sameMatrix(g, want) {
				t.Fatalf("trial %d %v: AddMatMulTN differs from AddInPlace(g, MatMulTN)", trial, sh)
			}
		}
	}
}

func TestIntoRejectsMismatch(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s with mismatched shapes must panic", name)
			}
		}()
		f()
	}
	mustPanic("MatMulInto", func() { MatMulInto(nil, New(2, 3), New(2, 3)) })
	mustPanic("MatMulNTInto", func() { MatMulNTInto(nil, New(2, 3), New(2, 4)) })
	mustPanic("MatMulTNInto", func() { MatMulTNInto(nil, New(2, 3), New(3, 3)) })
	mustPanic("AddMatMulTN", func() { AddMatMulTN(New(3, 2), New(2, 3), New(2, 3)) })
}

func TestReuse(t *testing.T) {
	var m *Matrix
	m = m.Reuse(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("Reuse from nil: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	data := &m.Data[0]
	if m2 := m.Reuse(2, 5); m2 != m || &m2.Data[0] != data || len(m2.Data) != 10 {
		t.Fatal("Reuse within capacity must keep the storage")
	}
	if m3 := m.Reuse(4, 4); m3 == m || len(m3.Data) != 16 {
		t.Fatal("Reuse beyond capacity must allocate")
	}
}
