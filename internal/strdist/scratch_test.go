package strdist

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// levenshteinDP is the textbook two-row dynamic program, the oracle the
// bit-parallel kernel is checked against: D[i][j] = min(D[i−1][j]+1,
// D[i][j−1]+1, D[i−1][j−1]+[a_i ≠ b_j]), with the inner loop over the
// shorter operand.
func levenshteinDP(a, b string) int {
	if len(b) > len(a) {
		a, b = b, a
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// normalizedDP is Normalized over the DP oracle.
func normalizedDP(a, b string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	return float64(levenshteinDP(a, b)) / float64(max(len(a), len(b)))
}

// checkKernel compares every entry point on (a, b) with the DP oracle,
// both operand orders, on the shared scratch s.
func checkKernel(t testing.TB, a, b string, s *LevScratch) {
	t.Helper()
	want := levenshteinDP(a, b)
	for _, got := range []int{
		Distance(a, []byte(b), s), Distance([]byte(b), a, s),
		Distance(a, b, s), Distance(b, a, s), Levenshtein(a, b),
	} {
		if got != want {
			t.Fatalf("edit distance of %q and %q = %d, DP oracle %d", a, b, got, want)
		}
	}
	wantN := math.Float64bits(normalizedDP(a, b))
	for _, got := range []float64{NormalizedBytes(a, []byte(b), s), NormalizedBytes(b, []byte(a), s), Normalized(a, b)} {
		if math.Float64bits(got) != wantN {
			t.Fatalf("normalized distance of %q and %q = %x, DP oracle %x", a, b, math.Float64bits(got), wantN)
		}
	}
}

// checkPrepared prepares p once and runs each text against it in a row,
// comparing every distance with the DP oracle, so a table bit or delta
// word one run left behind would show in the next. The pattern may be
// longer than a text. After Release the match table must be all zero.
func checkPrepared(t testing.TB, p string, texts []string, s *LevScratch) {
	t.Helper()
	s.Prepare(p)
	for _, x := range texts {
		if got, want := s.Run([]byte(x)), levenshteinDP(p, x); got != want {
			t.Fatalf("prepared %q run against %q = %d, DP oracle %d", p, x, got, want)
		}
		if got, want := s.NormalizedRun([]byte(x)), normalizedDP(p, x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("prepared %q normalized against %q = %x, DP oracle %x", p, x, math.Float64bits(got), math.Float64bits(want))
		}
	}
	s.Release()
	for b := range s.peq {
		for c, bits := range s.peq[b] {
			if bits != 0 {
				t.Fatalf("match table block %d byte %d left at %x after Release of %q", b, c, bits, p)
			}
		}
	}
}

// TestPreparedRunsMatchDP runs one prepared pattern against texts
// shorter and longer than it, empty, and spanning one to three blocks.
func TestPreparedRunsMatchDP(t *testing.T) {
	var s LevScratch
	long := strings.Repeat("abXY/", 30) // 150 bytes: three blocks
	texts := []string{"", "a", "kitten", long[:63], long[:64], long[:65], long[:129], long, "sitting", ""}
	for _, p := range []string{"", "kitten", long[:64], long[:100], long} {
		checkPrepared(t, p, texts, &s)
	}
}

// TestLevenshteinBytesMatchesString pins the kernel, over string and
// byte-slice operands in both orders, to the DP oracle on edge cases and
// random operand pairs, short ones and ones that span two and three
// 64-bit blocks.
func TestLevenshteinBytesMatchesString(t *testing.T) {
	var s LevScratch
	for _, p := range [][2]string{
		{"", ""}, {"", "abc"}, {"abc", ""}, {"kitten", "sitting"}, {"a", "a"},
		{"short", "a much longer operand"},
	} {
		checkKernel(t, p[0], p[1], &s)
	}
	rng := rand.New(rand.NewSource(5))
	alphabet := "abXY/[]01"
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for trial := 0; trial < 300; trial++ {
		checkKernel(t, randStr(rng.Intn(24)), randStr(rng.Intn(24)), &s)
	}
	for trial := 0; trial < 300; trial++ {
		checkKernel(t, randStr(rng.Intn(200)), randStr(rng.Intn(200)), &s)
	}
	// A long shared prefix then a divergence, so the distance's carry has
	// to cross block boundaries.
	for _, n := range []int{63, 64, 65, 127, 128, 129, 192} {
		base := strings.Repeat("ab", n)[:n]
		checkKernel(t, base, base+"x", &s)
		checkKernel(t, base, "x"+base, &s)
		checkKernel(t, base, strings.Repeat("b", n), &s)
		checkKernel(t, base[:n-1]+"z", base, &s)
	}
}

// TestLevScratchReuseAcrossSizes interleaves small and large operands on
// one scratch, so a table bit or delta word left over from a bigger
// computation would corrupt a smaller one.
func TestLevScratchReuseAcrossSizes(t *testing.T) {
	var s LevScratch
	pairs := [][2]string{
		{"abcdefghijklmnop", "ponmlkjihgfedcba"},
		{"ab", "ba"},
		{"xyxyxyxyxyxyxyxyxyxyxyxy", "yx"},
		{"a", ""},
		{"same", "same"},
		{strings.Repeat("pq", 70), strings.Repeat("qp", 75)},
		{"p", "q"},
	}
	for round := 0; round < 3; round++ {
		for _, p := range pairs {
			checkKernel(t, p[0], p[1], &s)
		}
	}
	for b := range s.peq {
		for c, bits := range s.peq[b] {
			if bits != 0 {
				t.Fatalf("match table block %d byte %d left at %x between calls", b, c, bits)
			}
		}
	}
}

// FuzzEditDistance checks the bit-parallel kernel against the DP oracle,
// and its symmetry, on arbitrary bytes. Besides the raw operands it also
// compares them padded past 64 and 128 bytes, so every input exercises
// the carry between blocks, and runs a prepared pattern against several
// texts in a row (checkPrepared).
func FuzzEditDistance(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("het", "he")
	f.Add("", "\x00\xff")
	f.Add(strings.Repeat("a", 64), strings.Repeat("a", 63)+"b")
	f.Add(strings.Repeat("xy", 33), strings.Repeat("yx", 50))
	var s LevScratch
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 100 || len(b) > 100 {
			t.Skip("the quadratic oracle bounds the operand size")
		}
		checkKernel(t, a, b, &s)
		pad := strings.Repeat("/", 70)
		checkKernel(t, a+pad+a, pad+b+pad, &s)
		checkKernel(t, pad+a+pad+a, b+pad, &s)
		// One prepared pattern against several texts in a row, the way
		// the phase-two matcher runs a prototype's path against a page's
		// new paths: shorter and longer texts, and both operands past 64
		// and 128 bytes.
		texts := []string{b, a, b[:len(b)/2], pad + b, b + pad + a + pad, "", b}
		checkPrepared(t, a, texts, &s)
		checkPrepared(t, a+pad, texts, &s)
		checkPrepared(t, pad+a+pad, texts, &s)
	})
}
