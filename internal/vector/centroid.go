package vector

import (
	"math"
	"slices"
)

// CentroidScratch is the reusable workspace of the dense-accumulator
// centroid kernel: member weights are scattered into a dense []float64
// indexed by term ID, then gathered back to a sparse IDVec — no maps, no
// string-keyed merge chain. A scratch is sized to the dictionary and
// reused across K-Means iterations; each Centroid call leaves it clean
// for the next.
//
// Ownership: a scratch belongs to exactly one goroutine at a time. The
// clustering layer keeps one per worker (via sync.Pool around the
// parallel fan-out) and reuses it across the restarts and iterations
// that worker runs; scratches are never shared concurrently.
type CentroidScratch struct {
	acc     []float64
	seen    []bool
	touched []int32
	rows    []float64 // K-Means' dense centroid rows; zero between uses
}

// NewCentroidScratch returns a scratch for dictionaries of up to dim
// terms. The scratch grows on demand, so dim is a pre-sizing hint; the
// zero value (via new(CentroidScratch)) also works.
func NewCentroidScratch(dim int) *CentroidScratch {
	return &CentroidScratch{
		acc:  make([]float64, dim),
		seen: make([]bool, dim),
	}
}

// ensure grows the dense buffers to cover IDs below dim.
func (s *CentroidScratch) ensure(dim int) {
	if dim <= len(s.acc) {
		return
	}
	acc := make([]float64, dim)
	copy(acc, s.acc)
	s.acc = acc
	seen := make([]bool, dim)
	copy(seen, s.seen)
	s.seen = seen
}

// Rows returns k dense rows of width cells each, back to back and all
// zero: K-Means scatters each centroid into its row (IDVec.Scatter) and
// gathers every vector against it (IDVec.CosineRow). The rows live in
// the scratch and are reused across the iterations and restarts it
// serves; the caller unscatters what it scattered before the scratch is
// used again.
func (s *CentroidScratch) Rows(k, width int) []float64 {
	if cap(s.rows) < k*width {
		s.rows = make([]float64, k*width)
	}
	return s.rows[:k*width]
}

// Centroid computes the centroid of vs — per-term average weight — by
// scattering each member into the dense accumulator in member order and
// gathering the touched IDs back in ascending order. The result is
// bit-identical to vectorref.Centroid (fold of Add over members,
// then Scale): the dense cells accumulate each term's weights in the
// same member order the Add-fold does (a term's first contribution lands
// on an exact 0.0, and x+0 ≡ x), and the final multiply by 1/len(vs)
// mirrors Scale. The centroid of an empty slice is the zero vector.
func (s *CentroidScratch) Centroid(vs []IDVec) IDVec {
	if len(vs) == 0 {
		return IDVec{}
	}
	for _, v := range vs {
		if n := len(v.IDs); n > 0 {
			s.ensure(int(v.IDs[n-1]) + 1)
		}
		for i, id := range v.IDs {
			if !s.seen[id] {
				s.seen[id] = true
				s.touched = append(s.touched, id)
			}
			s.acc[id] += v.Weights[i]
		}
	}
	slices.Sort(s.touched)
	f := 1 / float64(len(vs))
	ids := make([]int32, len(s.touched))
	weights := make([]float64, len(s.touched))
	var norm float64
	for i, id := range s.touched {
		w := s.acc[id] * f
		ids[i] = id
		weights[i] = w
		norm += w * w
		s.acc[id] = 0
		s.seen[id] = false
	}
	s.touched = s.touched[:0]
	return IDVec{IDs: ids, Weights: weights, norm: math.Sqrt(norm)}
}

// BlendIDVec returns wa·a + wb·b over the union of the two ID sets — the
// weighted-mean kernel of mini-batch centroid maintenance: a centroid of
// N historical members absorbs a batch mean of n fresh members as
// Blend(old, N/(N+n), batch, n/(N+n)), which is exactly the centroid the
// combined membership would average to. The merge visits IDs in
// ascending order (both inputs are sorted), so the result is a valid
// IDVec with its norm cached; the inputs are not retained.
func BlendIDVec(a IDVec, wa float64, b IDVec, wb float64) IDVec {
	ids := make([]int32, 0, len(a.IDs)+len(b.IDs))
	weights := make([]float64, 0, len(a.IDs)+len(b.IDs))
	var norm float64
	push := func(id int32, w float64) {
		ids = append(ids, id)
		weights = append(weights, w)
		norm += w * w
	}
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch ai, bj := a.IDs[i], b.IDs[j]; {
		case ai == bj:
			push(ai, wa*a.Weights[i]+wb*b.Weights[j])
			i++
			j++
		case ai < bj:
			push(ai, wa*a.Weights[i])
			i++
		default:
			push(bj, wb*b.Weights[j])
			j++
		}
	}
	for ; i < len(a.IDs); i++ {
		push(a.IDs[i], wa*a.Weights[i])
	}
	for ; j < len(b.IDs); j++ {
		push(b.IDs[j], wb*b.Weights[j])
	}
	return IDVec{IDs: ids, Weights: weights, norm: math.Sqrt(norm)}
}
