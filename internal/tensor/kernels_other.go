//go:build !amd64

package tensor

func axpy4(dst, a0, a1, a2, a3 []float32, s0, s1, s2, s3 float32) {
	axpy4Go(dst, a0, a1, a2, a3, s0, s1, s2, s3)
}

func dot4(a, b0, b1, b2, b3 []float32) (r0, r1, r2, r3 float32) {
	return dot4Go(a, b0, b1, b2, b3)
}
