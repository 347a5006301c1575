package strdist

import "testing"

// BenchmarkEditDistance times the kernel on simplified tag paths of the
// length phase two compares (about 16 bytes), and on operands long
// enough to take two and three blocks.
//
//	go test ./internal/strdist -bench EditDistance -run '^$'
func BenchmarkEditDistance(b *testing.B) {
	for _, bc := range []struct{ name, a, b string }{
		{"path16", "hbdt2r3d1ua4pl", "hbdt2r5d1ua3plis"},
		{"url56", "http://search.ebay.com/search/search.dll?query=superman", "http://search.ebay.com/search/search.dll?query=xfghae"},
		{"long150", longOperand(150, 'a'), longOperand(140, 'b')},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var s LevScratch
			pb := []byte(bc.b)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += Distance(bc.a, pb, &s)
			}
		})
	}
}

func longOperand(n int, shift byte) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = 'a' + (byte(i)*7+shift)%26
	}
	return string(out)
}

// benchSink defeats dead-code elimination of the benchmarked kernel.
var benchSink int
