package tagtree

import (
	"fmt"
	"strconv"
	"strings"
)

// Path returns the XPath-style path expression from the root of the tree to
// n, e.g. "html/body/table[3]". A step carries a 1-based positional index in
// brackets when the node has same-tag siblings; when a tag is unique among
// its siblings the index is omitted, matching the notation used in the
// paper. Content nodes use the pseudo-step "#text".
//
// The path expression from the root to a node identifies the subtree rooted
// at that node (Section 2).
func (n *Node) Path() string {
	return strings.Join(n.pathSteps(), "/")
}

func (n *Node) pathSteps() []string {
	// Collect ancestors root→n.
	var chain []*Node
	for m := n; m != nil; m = m.Parent {
		chain = append(chain, m)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	steps := make([]string, 0, len(chain))
	for _, m := range chain {
		steps = append(steps, m.step())
	}
	return steps
}

func (m *Node) step() string {
	label := m.Tag
	if m.Type == ContentNode {
		label = "#text"
	}
	if m.Parent == nil {
		return label
	}
	idx, total := m.siblingIndex()
	if total <= 1 {
		return label
	}
	return label + "[" + strconv.Itoa(idx) + "]"
}

// StepIndex returns n's 1-based position among its same-label siblings and
// the total number of such siblings — the positional information a Path
// step carries. Path renders the index only when total > 1; callers that
// rebuild path steps incrementally (the pooled apply pipeline) must apply
// the same rule to stay byte-identical with Path.
func (n *Node) StepIndex() (idx, total int) { return n.siblingIndex() }

// siblingIndex returns m's 1-based position among its same-label siblings
// and the total number of such siblings.
func (m *Node) siblingIndex() (idx, total int) {
	if m.Parent == nil {
		return 1, 1
	}
	for _, s := range m.Parent.Children {
		if s.Type != m.Type {
			continue
		}
		if s.Type == TagNode && s.Tag != m.Tag {
			continue
		}
		total++
		if s == m {
			idx = total
		}
	}
	return idx, total
}

// Lookup resolves an XPath-style path produced by Path against the tree
// rooted at root and returns the node it identifies, or an error if the
// path does not resolve. The first step must match the root's own label.
func Lookup(root *Node, path string) (*Node, error) {
	if path == "" {
		return nil, fmt.Errorf("tagtree: empty path")
	}
	steps := strings.Split(path, "/")
	label, idx, err := parseStep(steps[0])
	if err != nil {
		return nil, err
	}
	if rootLabel(root) != label || idx > 1 {
		return nil, fmt.Errorf("tagtree: path %q does not start at root %q", path, rootLabel(root))
	}
	cur := root
	for _, s := range steps[1:] {
		label, idx, err = parseStep(s)
		if err != nil {
			return nil, err
		}
		next := childByStep(cur, label, idx)
		if next == nil {
			return nil, fmt.Errorf("tagtree: step %q of path %q not found", s, path)
		}
		cur = next
	}
	return cur, nil
}

func rootLabel(n *Node) string {
	if n.Type == ContentNode {
		return "#text"
	}
	return n.Tag
}

func parseStep(s string) (label string, idx int, err error) {
	idx = 1
	if i := strings.IndexByte(s, '['); i >= 0 {
		if !strings.HasSuffix(s, "]") {
			return "", 0, fmt.Errorf("tagtree: malformed step %q", s)
		}
		label = s[:i]
		idx, err = strconv.Atoi(s[i+1 : len(s)-1])
		if err != nil || idx < 1 {
			return "", 0, fmt.Errorf("tagtree: malformed index in step %q", s)
		}
		return label, idx, nil
	}
	return s, 1, nil
}

func childByStep(parent *Node, label string, idx int) *Node {
	seen := 0
	for _, c := range parent.Children {
		var match bool
		if label == "#text" {
			match = c.Type == ContentNode
		} else {
			match = c.Type == TagNode && c.Tag == label
		}
		if match {
			seen++
			if seen == idx {
				return c
			}
		}
	}
	return nil
}
