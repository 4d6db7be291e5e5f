//go:build !amd64

package nn

func rowTaps(acc, r, w []float32) { rowTapsGo(acc, r, w) }
