package nn

// rowTapsSSE applies rowTapsGo's update to the first len(acc) columns,
// four per SSE2 vector: each lane is one output column taking the taps
// in order, a MULPS and an ADDPS per tap, so every lane rounds exactly as
// the scalar loop does (DESIGN.md §7). len(acc) must be a multiple of 4,
// len(w) positive and len(r) at least len(acc)+len(w)-1.
//
//go:noescape
func rowTapsSSE(acc, r, w []float32)

// rowTaps is rowTapsGo with its full groups of four output columns
// vectorized; the remaining columns run the Go loop.
func rowTaps(acc, r, w []float32) {
	m := len(acc) &^ 3
	if m > 0 && len(w) > 0 {
		rowTapsSSE(acc[:m], r[:m+len(w)-1], w)
	} else {
		m = 0
	}
	if m < len(acc) {
		rowTapsGo(acc[m:], r[m:], w)
	}
}
