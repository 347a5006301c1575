package htmlx

import "thor/internal/tagtree"

// Parser is a reusable, arena-backed parser for serve-style workloads:
// parse a fresh page, walk the tree, release everything wholesale, repeat.
// Every node comes from an internal tagtree.Arena, every decoded or
// collapsed string from a byte arena with the same lifetime, and the
// open-element stack and tokenizer scratch persist across calls — a
// warmed Parser allocates nothing to parse a page. Parse runs a pooled
// Parser and copies its tree out, so the two produce trees identical
// node for node and byte for byte.
//
// The returned tree is valid only until the next Parse or Release call on
// the same Parser, and its strings may alias src — keep src alive while
// the tree is in use; callers keep what they need by copying (Node.Clone,
// Node.Path). A Parser is not safe for concurrent use — pool Parsers, one
// per in-flight request, rather than sharing one.
type Parser struct {
	alloc arenaAllocator
	tok   tokenizer
	open  openElements
}

// NewParser returns an empty Parser; capacity builds up over the first few
// pages parsed.
func NewParser() *Parser {
	return &Parser{}
}

// Parse parses src into an arena-backed tag tree, first releasing every
// node of the previous parse. See Parse for the (shared) parsing
// semantics and Parser for the ownership rules.
func (p *Parser) Parse(src string) *tagtree.Node {
	p.alloc.reset()
	p.tok.reset(src)
	return build(&p.tok, &p.alloc, &p.open)
}

// Release scrubs the current tree's nodes without parsing a replacement,
// dropping references into the last document's HTML while keeping the
// arena's slabs warm.
func (p *Parser) Release() {
	p.alloc.reset()
	p.tok.reset("")
}
