package wma

import "testing"

// benchLosses returns the n-expert loss vector (i mod k)/k.
func benchLosses(n, k int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i%k) / float64(k)
	}
	return out
}

// BenchmarkUpdate36 measures one WMA round over the testbed's 36 experts
// (6 core × 6 memory frequency pairs).
func BenchmarkUpdate36(b *testing.B) {
	t := New(36, 0.2)
	loss := benchLosses(36, 7)
	for i := 0; i < b.N; i++ {
		t.Update(loss)
	}
}

// BenchmarkBest measures the argmax over the expert table.
func BenchmarkBest(b *testing.B) {
	t := New(36, 0.2)
	t.Update(benchLosses(36, 5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Best()
	}
}

// BenchmarkFixed8Update36 measures one fixed-point WMA round — the cost
// the paper's §VI sketch maps onto shift-add hardware.
func BenchmarkFixed8Update36(b *testing.B) {
	t := NewFixed8(36, 0.2)
	loss := benchLosses(36, 7)
	for i := 0; i < b.N; i++ {
		t.Update(loss)
	}
}
