package core

import (
	"fmt"
	"math/rand"
	"testing"

	"thor/internal/tagtree"
)

// TestStepIndexesMatchStepIndex checks appendStepIndexes against
// Node.StepIndex on sibling lists of content and tag children drawn from
// 1 to maxKeptSlots+10 distinct tags, with one tally reused for every
// list of a walk, and reset between walks, past maxKeptSlots too.
func TestStepIndexesMatchStepIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tally stepTally
	for _, distinct := range []int{1, 2, 3, 16, maxKeptSlots + 10, 40} {
		tally.reset()
		for rep := 0; rep < 20; rep++ {
			parent := tagtree.NewTag("ul")
			for i, n := 0, rng.Intn(3*distinct)+1; i < n; i++ {
				if rng.Intn(5) == 0 {
					parent.AppendChild(tagtree.NewContent("x"))
					continue
				}
				parent.AppendChild(tagtree.NewTag(fmt.Sprintf("t%d", rng.Intn(distinct))))
			}
			steps := appendStepIndexes([]int32{7}, parent.Children, &tally)
			if len(steps) != len(parent.Children)+1 || steps[0] != 7 {
				t.Fatalf("%d distinct: %d steps after the prefix for %d children", distinct, len(steps)-1, len(parent.Children))
			}
			for i, c := range parent.Children {
				var want int32
				if c.Type == tagtree.TagNode {
					if idx, total := c.StepIndex(); total > 1 {
						want = int32(idx)
					}
				}
				if got := steps[i+1]; got != want {
					t.Fatalf("%d distinct, child %d (%s): step %d, want %d", distinct, i, c.Tag, got, want)
				}
			}
		}
	}
}
