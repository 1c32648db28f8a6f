package syntax

// Simplify rewrites the tree into a small canonical form:
//
//   - nested concatenations and alternations are flattened;
//   - ε units are dropped from concatenations, ∅ annihilates them;
//   - ∅ branches are dropped from alternations;
//   - trivial repeats are unfolded: x{0} → ε, x{1} → x, x{0,1} → x?,
//     x{0,} → x*, x{1,} → x+;
//   - (x*)* , (x+)+ , (x?)? collapse to one operator.
//
// It never changes the recognized language. Counted repeats with
// non-trivial bounds are kept; ExpandRepeats removes them.
func Simplify(n *Node) *Node {
	if n == nil {
		return nil
	}
	for i, s := range n.Sub {
		n.Sub[i] = Simplify(s)
	}
	switch n.Op {
	case OpConcat:
		subs := make([]*Node, 0, len(n.Sub))
		for _, s := range n.Sub {
			switch s.Op {
			case OpEmpty:
				// ε is the unit of concatenation.
			case OpNone:
				return &Node{Op: OpNone}
			case OpConcat:
				subs = append(subs, s.Sub...)
			default:
				subs = append(subs, s)
			}
		}
		switch len(subs) {
		case 0:
			return &Node{Op: OpEmpty}
		case 1:
			return subs[0]
		}
		n.Sub = subs
		return n

	case OpAlt:
		// Flatten first, so an ε inside a nested alternation is deduplicated
		// with the outer ones: |(|0) and (?:)|(?:)|0 give the same tree.
		flat := make([]*Node, 0, len(n.Sub))
		for _, s := range n.Sub {
			if s.Op == OpAlt {
				flat = append(flat, s.Sub...)
			} else {
				flat = append(flat, s)
			}
		}
		subs := make([]*Node, 0, len(flat))
		sawEmpty := false
		for _, s := range flat {
			switch s.Op {
			case OpNone:
				// ∅ is the unit of alternation.
			case OpEmpty:
				if !sawEmpty {
					sawEmpty = true
					subs = append(subs, s)
				}
			default:
				subs = append(subs, s)
			}
		}
		switch len(subs) {
		case 0:
			return &Node{Op: OpNone}
		case 1:
			return subs[0]
		}
		n.Sub = subs
		return n

	case OpStar, OpPlus, OpQuest:
		s := n.Sub[0]
		switch s.Op {
		case OpEmpty:
			return &Node{Op: OpEmpty}
		case OpNone:
			if n.Op == OpPlus {
				return &Node{Op: OpNone}
			}
			return &Node{Op: OpEmpty}
		case OpStar:
			return s // (x*)* = x*; (x*)+ = x*; (x*)? = x*
		case OpPlus:
			if n.Op == OpPlus {
				return s
			}
			return &Node{Op: OpStar, Sub: s.Sub} // (x+)* = (x+)? ⊂ x*
		case OpQuest:
			if n.Op == OpQuest {
				return s
			}
			return &Node{Op: OpStar, Sub: s.Sub} // (x?)* = (x?)+ = x*
		}
		return n

	case OpRepeat:
		s := n.Sub[0]
		if s.Op == OpEmpty {
			return &Node{Op: OpEmpty}
		}
		if s.Op == OpNone {
			if n.Min == 0 {
				return &Node{Op: OpEmpty}
			}
			return &Node{Op: OpNone}
		}
		switch {
		case n.Min == 0 && n.Max == 0:
			return &Node{Op: OpEmpty}
		case n.Min == 1 && n.Max == 1:
			return s
		case n.Min == 0 && n.Max == 1:
			return Simplify(&Node{Op: OpQuest, Sub: []*Node{s}})
		case n.Min == 0 && n.Max == -1:
			return Simplify(&Node{Op: OpStar, Sub: []*Node{s}})
		case n.Min == 1 && n.Max == -1:
			return Simplify(&Node{Op: OpPlus, Sub: []*Node{s}})
		}
		return n
	}
	return n
}

// ExpandRepeats returns an equivalent tree with every OpRepeat node
// unfolded into concatenations of copies:
//
//	x{n}    →  x x … x               (n copies)
//	x{n,}   →  x x … x x*            (n copies and a star)
//	x{n,m}  →  x … x  x? … x?        (n copies, m-n optionals)
//
// The result contains only the operators consumed by the Glushkov and
// Thompson constructions. The input tree is not modified.
func ExpandRepeats(n *Node) *Node {
	if n == nil {
		return nil
	}
	if n.Op != OpRepeat {
		c := &Node{Op: n.Op, Set: n.Set, Min: n.Min, Max: n.Max, Anchor: n.Anchor}
		if n.Sub != nil {
			c.Sub = make([]*Node, len(n.Sub))
			for i, s := range n.Sub {
				c.Sub[i] = ExpandRepeats(s)
			}
		}
		return c
	}
	inner := ExpandRepeats(n.Sub[0])
	var subs []*Node
	for i := 0; i < n.Min; i++ {
		subs = append(subs, inner.Clone())
	}
	switch {
	case n.Max < 0:
		subs = append(subs, &Node{Op: OpStar, Sub: []*Node{inner.Clone()}})
	default:
		for i := n.Min; i < n.Max; i++ {
			subs = append(subs, &Node{Op: OpQuest, Sub: []*Node{inner.Clone()}})
		}
	}
	switch len(subs) {
	case 0:
		return &Node{Op: OpEmpty}
	case 1:
		return subs[0]
	}
	return Simplify(&Node{Op: OpConcat, Sub: subs})
}

// BracketForSearch rewrites e into (?s).* e (?s).*, honouring anchors: a
// leading ^ or trailing $ in the pattern suppresses the respective
// bracket. This is the whole-input-acceptance encoding of unanchored
// substring search, shared by the public API's WithSearch option and the
// corpus filters that must predict the automata it produces.
func BracketForSearch(node *Node) *Node {
	stripped, begin, end := StripAnchors(node)
	dotStar := func() *Node {
		return &Node{Op: OpStar, Sub: []*Node{
			{Op: OpClass, Set: AnyByte()},
		}}
	}
	subs := []*Node{}
	if !begin {
		subs = append(subs, dotStar())
	}
	subs = append(subs, stripped)
	if !end {
		subs = append(subs, dotStar())
	}
	return Simplify(&Node{Op: OpConcat, Sub: subs})
}

// StripAnchors removes ^ and $ assertions, returning the stripped tree and
// whether the pattern was anchored at its beginning and end. For the
// whole-input acceptance semantics used throughout the paper's experiments
// a leading ^ and a trailing $ are no-ops. An anchor in any other position
// would be an assertion the automata cannot express; Parse rejects it, so
// a parsed tree carries none (a tree built by hand that does has it
// treated as ε).
func StripAnchors(n *Node) (stripped *Node, begin, end bool) {
	begin = leadingAnchor(n, AnchorBegin)
	end = trailingAnchor(n, AnchorEnd)
	return Simplify(removeAnchors(n.Clone())), begin, end
}

func leadingAnchor(n *Node, kind int) bool {
	switch n.Op {
	case OpAnchor:
		return n.Anchor == kind
	case OpConcat:
		if len(n.Sub) > 0 {
			return leadingAnchor(n.Sub[0], kind)
		}
	case OpAlt:
		for _, s := range n.Sub {
			if !leadingAnchor(s, kind) {
				return false
			}
		}
		return len(n.Sub) > 0
	}
	return false
}

func trailingAnchor(n *Node, kind int) bool {
	switch n.Op {
	case OpAnchor:
		return n.Anchor == kind
	case OpConcat:
		if len(n.Sub) > 0 {
			return trailingAnchor(n.Sub[len(n.Sub)-1], kind)
		}
	case OpAlt:
		for _, s := range n.Sub {
			if !trailingAnchor(s, kind) {
				return false
			}
		}
		return len(n.Sub) > 0
	}
	return false
}

func removeAnchors(n *Node) *Node {
	if n.Op == OpAnchor {
		return &Node{Op: OpEmpty}
	}
	for i, s := range n.Sub {
		n.Sub[i] = removeAnchors(s)
	}
	return n
}
