package tensor

// The amd64 build runs axpy4 and dot4 on packed SSE2, part of the amd64
// baseline, so there is nothing to detect at run time. Each vector lane
// performs exactly the scalar reference's operation sequence — MULPS and
// ADDPS round every lane as MULSS and ADDSS do, and nothing is fused — so
// the results are bit-identical to axpy4Go and dot4Go (DESIGN.md §7).

// axpy4SSE applies axpy4Go's update to the first len(dst) elements, four
// at a time. len(dst) must be a multiple of 4, the a slices at least as
// long, and no scalar zero.
//
//go:noescape
func axpy4SSE(dst, a0, a1, a2, a3 []float32, s0, s1, s2, s3 float32)

// dot4SSE runs dot4Go's main loop over len(a) elements (a multiple of 4):
// acc[r] receives the four partial sums s_r0..s_r3 of row r, which the
// caller reduces. The b slices must be at least as long as a.
//
//go:noescape
func dot4SSE(a, b0, b1, b2, b3 []float32, acc *[4][4]float32)

// axpy4 is axpy4Go with its full four-element groups vectorized. The zero
// scalar fallback and the tail stay in Go.
func axpy4(dst, a0, a1, a2, a3 []float32, s0, s1, s2, s3 float32) {
	n := len(dst)
	if n < 4 || s0 == 0 || s1 == 0 || s2 == 0 || s3 == 0 {
		axpy4Go(dst, a0, a1, a2, a3, s0, s1, s2, s3)
		return
	}
	a0, a1, a2, a3 = a0[:n], a1[:n], a2[:n], a3[:n]
	m := n &^ 3
	axpy4SSE(dst[:m], a0, a1, a2, a3, s0, s1, s2, s3)
	if m < n {
		axpy4Go(dst[m:], a0[m:], a1[m:], a2[m:], a3[m:], s0, s1, s2, s3)
	}
}

// dot4 is dot4Go with the four accumulators of each row held in the
// lanes of one vector register. The horizontal sum ((s0+s1)+s2)+s3 and
// the tail stay in Go, in dot4Go's order.
func dot4(a, b0, b1, b2, b3 []float32) (r0, r1, r2, r3 float32) {
	n := len(a)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	m := n &^ 3
	var s [4][4]float32
	if m > 0 {
		dot4SSE(a[:m], b0, b1, b2, b3, &s)
	}
	r0 = s[0][0] + s[0][1] + s[0][2] + s[0][3]
	r1 = s[1][0] + s[1][1] + s[1][2] + s[1][3]
	r2 = s[2][0] + s[2][1] + s[2][2] + s[2][3]
	r3 = s[3][0] + s[3][1] + s[3][2] + s[3][3]
	for i := m; i < n; i++ {
		av := a[i]
		r0 += av * b0[i]
		r1 += av * b1[i]
		r2 += av * b2[i]
		r3 += av * b3[i]
	}
	return r0, r1, r2, r3
}
