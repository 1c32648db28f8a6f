package syntax

import (
	"fmt"
)

// ParseError describes a syntax error in a pattern with its byte offset.
type ParseError struct {
	Pattern string
	Pos     int
	Msg     string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("syntax: %s at offset %d in %q", e.Msg, e.Pos, e.Pattern)
}

// MaxRepeat bounds counted repetition {n,m}. The SNORT rules exercised by
// the paper use counters up to 1024; the paper's own r_n family goes to
// n = 500. Larger counters would explode the Glushkov position set.
const MaxRepeat = 2000

// Flags alter parsing behaviour. They correspond to the PCRE modifiers
// found after the closing delimiter of SNORT pcre options.
type Flags uint8

const (
	// FoldCase makes literals and classes case-insensitive ((?i) / /i).
	FoldCase Flags = 1 << iota
	// DotAll makes '.' match '\n' too ((?s) / /s).
	DotAll
)

// Parse parses a pattern into a simplified AST. Anchors are accepted only
// where StripAnchors removes them soundly: a ^ that begins every
// alternative of the whole pattern and a $ that ends every one. Any other
// anchor is an error naming it and its offset.
func Parse(pattern string, flags Flags) (*Node, error) {
	p := &parser{src: pattern, flags: flags}
	n, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, p.errorf("unexpected %q", p.src[p.pos])
	}
	n = Simplify(n)
	if err := p.checkAnchors(n); err != nil {
		return nil, err
	}
	return n, nil
}

// checkAnchors rejects every anchor of the tree that is not an edge of
// the whole pattern. The automata have no position assertions: an anchor
// is a text edge only when StripAnchors reports it — a ^ first in every
// alternative, a $ last in every one — and treating any other as ε would
// match where the anchor cannot (x|^abc on "zabc", a(^b) on "ab").
func (p *parser) checkAnchors(root *Node) error {
	if len(p.anchors) == 0 {
		return nil
	}
	edge := map[*Node]bool{}
	if leadingAnchor(root, AnchorBegin) {
		markEdgeAnchors(root, false, edge)
	}
	if trailingAnchor(root, AnchorEnd) {
		markEdgeAnchors(root, true, edge)
	}
	live := map[*Node]bool{}
	collectAnchors(root, live)
	for _, a := range p.anchors {
		if !live[a.n] || edge[a.n] {
			continue // simplified away, or a text edge
		}
		msg := "anchor ^ does not begin every alternative of the pattern"
		if a.n.Anchor == AnchorEnd {
			msg = "anchor $ does not end every alternative of the pattern"
		}
		return &ParseError{Pattern: p.src, Pos: a.pos, Msg: msg}
	}
	return nil
}

// markEdgeAnchors marks the anchors leadingAnchor (last: trailingAnchor)
// reached — the first (last) item of every alternative.
func markEdgeAnchors(n *Node, last bool, edge map[*Node]bool) {
	switch n.Op {
	case OpAnchor:
		edge[n] = true
	case OpConcat:
		if last {
			markEdgeAnchors(n.Sub[len(n.Sub)-1], last, edge)
		} else {
			markEdgeAnchors(n.Sub[0], last, edge)
		}
	case OpAlt:
		for _, s := range n.Sub {
			markEdgeAnchors(s, last, edge)
		}
	}
}

func collectAnchors(n *Node, live map[*Node]bool) {
	if n.Op == OpAnchor {
		live[n] = true
	}
	for _, s := range n.Sub {
		collectAnchors(s, live)
	}
}

// MustParse is Parse for tests and tables of known-good patterns.
func MustParse(pattern string, flags Flags) *Node {
	n, err := Parse(pattern, flags)
	if err != nil {
		panic(err)
	}
	return n
}

// ParsePCRE parses a /pattern/flags form as found in SNORT pcre options,
// accepting the modifiers i and s (others that do not affect a byte-level
// whole-input matcher, such as m and x-less forms, are rejected).
func ParsePCRE(delimited string) (*Node, Flags, error) {
	if len(delimited) < 2 || delimited[0] != '/' {
		return nil, 0, fmt.Errorf("syntax: pcre form must be /pattern/flags, got %q", delimited)
	}
	end := -1
	for i := len(delimited) - 1; i > 0; i-- {
		if delimited[i] == '/' {
			end = i
			break
		}
	}
	if end <= 0 {
		return nil, 0, fmt.Errorf("syntax: unterminated pcre pattern %q", delimited)
	}
	var flags Flags
	for _, f := range delimited[end+1:] {
		switch f {
		case 'i':
			flags |= FoldCase
		case 's':
			flags |= DotAll
		case 'm':
			// ^/$ are treated as text anchors by this matcher anyway.
		default:
			return nil, 0, fmt.Errorf("syntax: unsupported pcre flag %q in %q", f, delimited)
		}
	}
	n, err := Parse(delimited[1:end], flags)
	return n, flags, err
}

type parser struct {
	src     string
	pos     int
	flags   Flags
	depth   int
	anchors []anchorAt // every anchor parsed, in source order
}

// anchorAt is an anchor node and its byte offset in the pattern.
type anchorAt struct {
	n   *Node
	pos int
}

func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{Pattern: p.src, Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool  { return p.pos >= len(p.src) }
func (p *parser) peek() byte { return p.src[p.pos] }
func (p *parser) next() byte { b := p.src[p.pos]; p.pos++; return b }
func (p *parser) accept(b byte) bool {
	if !p.eof() && p.peek() == b {
		p.pos++
		return true
	}
	return false
}

// parseAlt parses alternation: concat ('|' concat)*.
func (p *parser) parseAlt() (*Node, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	if p.eof() || p.peek() != '|' {
		return first, nil
	}
	subs := []*Node{first}
	for p.accept('|') {
		n, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		subs = append(subs, n)
	}
	return &Node{Op: OpAlt, Sub: subs}, nil
}

// parseConcat parses a (possibly empty) sequence of repeated atoms.
func (p *parser) parseConcat() (*Node, error) {
	var subs []*Node
	for !p.eof() && p.peek() != '|' && p.peek() != ')' {
		n, err := p.parseRepeat()
		if err != nil {
			return nil, err
		}
		subs = append(subs, n)
	}
	switch len(subs) {
	case 0:
		return &Node{Op: OpEmpty}, nil
	case 1:
		return subs[0], nil
	}
	return &Node{Op: OpConcat, Sub: subs}, nil
}

// parseRepeat parses an atom followed by any number of postfix operators
// (* + ? {n,m}), applied left to right.
func (p *parser) parseRepeat() (*Node, error) {
	n, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for !p.eof() {
		switch p.peek() {
		case '*':
			p.pos++
			n = &Node{Op: OpStar, Sub: []*Node{n}}
		case '+':
			p.pos++
			n = &Node{Op: OpPlus, Sub: []*Node{n}}
		case '?':
			p.pos++
			n = &Node{Op: OpQuest, Sub: []*Node{n}}
		case '{':
			save := p.pos
			rep, ok, err := p.tryParseCounts()
			if err != nil {
				return nil, err
			}
			if !ok {
				// A '{' that does not open a valid counter is a literal,
				// as in PCRE.
				p.pos = save
				return n, nil
			}
			rep.Sub = []*Node{n}
			n = rep
		default:
			return n, nil
		}
		if n.Op != OpClass && anchorOperand(n) {
			return nil, p.errorf("repetition of anchor")
		}
	}
	return n, nil
}

func anchorOperand(n *Node) bool {
	return len(n.Sub) == 1 && n.Sub[0].Op == OpAnchor
}

// tryParseCounts parses "{n}", "{n,}", or "{n,m}" starting at '{'.
// It reports ok=false (with p.pos unspecified) when the braces do not form
// a valid counter, so the caller can fall back to a literal '{'.
func (p *parser) tryParseCounts() (*Node, bool, error) {
	p.pos++ // consume '{'
	min, ok := p.parseInt()
	if !ok {
		return nil, false, nil
	}
	max := min
	if p.accept(',') {
		if p.accept('}') {
			if min > MaxRepeat {
				return nil, false, p.errorf("repeat count %d exceeds %d", min, MaxRepeat)
			}
			return &Node{Op: OpRepeat, Min: min, Max: -1}, true, nil
		}
		max, ok = p.parseInt()
		if !ok {
			return nil, false, nil
		}
	}
	if !p.accept('}') {
		return nil, false, nil
	}
	if max < min {
		return nil, false, p.errorf("invalid repeat count {%d,%d}", min, max)
	}
	if max > MaxRepeat {
		return nil, false, p.errorf("repeat count %d exceeds %d", max, MaxRepeat)
	}
	return &Node{Op: OpRepeat, Min: min, Max: max}, true, nil
}

func (p *parser) parseInt() (int, bool) {
	start := p.pos
	v := 0
	for !p.eof() && p.peek() >= '0' && p.peek() <= '9' {
		v = v*10 + int(p.next()-'0')
		if v > 10*MaxRepeat {
			break
		}
	}
	return v, p.pos > start
}

// parseAtom parses a single indivisible unit: a group, class, escape,
// anchor, dot, or literal byte.
func (p *parser) parseAtom() (*Node, error) {
	if p.eof() {
		return nil, p.errorf("missing atom")
	}
	switch b := p.peek(); b {
	case '(':
		return p.parseGroup()
	case '[':
		set, err := p.parseClass()
		if err != nil {
			return nil, err
		}
		return &Node{Op: OpClass, Set: set}, nil
	case '\\':
		return p.parseEscape()
	case '^', '$':
		n := &Node{Op: OpAnchor, Anchor: AnchorBegin}
		if b == '$' {
			n.Anchor = AnchorEnd
		}
		p.anchors = append(p.anchors, anchorAt{n, p.pos})
		p.pos++
		return n, nil
	case '.':
		p.pos++
		if p.flags&DotAll != 0 {
			return &Node{Op: OpClass, Set: AnyByte()}, nil
		}
		return &Node{Op: OpClass, Set: AnyNoNL()}, nil
	case '*', '+', '?':
		return nil, p.errorf("missing operand for %q", b)
	case ')':
		return nil, p.errorf("unmatched ')'")
	default:
		p.pos++
		var set CharSet
		set.AddByte(b)
		if p.flags&FoldCase != 0 {
			set.Fold()
		}
		return &Node{Op: OpClass, Set: set}, nil
	}
}

// parseGroup parses "(...)", "(?:...)", and "(?flags:...)" /"(?flags)".
// Capturing and non-capturing groups are equivalent for acceptance.
func (p *parser) parseGroup() (*Node, error) {
	p.pos++ // consume '('
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > 500 {
		return nil, p.errorf("expression nests too deeply")
	}
	savedFlags := p.flags
	if p.accept('?') {
		// (?i), (?s), (?is:...), (?:...), (?=...) unsupported lookarounds.
		for !p.eof() {
			switch p.peek() {
			case 'i':
				p.flags |= FoldCase
				p.pos++
				continue
			case 's':
				p.flags |= DotAll
				p.pos++
				continue
			case '-':
				p.pos++
				for !p.eof() && (p.peek() == 'i' || p.peek() == 's') {
					if p.peek() == 'i' {
						p.flags &^= FoldCase
					} else {
						p.flags &^= DotAll
					}
					p.pos++
				}
				continue
			case ':':
				p.pos++
			case ')':
				// Flag-setting group: applies to the rest of the enclosing
				// group, like PCRE.
				p.pos++
				return &Node{Op: OpEmpty}, nil
			case '=', '!', '<':
				return nil, p.errorf("lookaround groups are not supported")
			default:
				return nil, p.errorf("unrecognized group flag %q", p.peek())
			}
			break
		}
		n, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		if !p.accept(')') {
			return nil, p.errorf("missing ')'")
		}
		p.flags = savedFlags
		return n, nil
	}
	n, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	if !p.accept(')') {
		return nil, p.errorf("missing ')'")
	}
	return n, nil
}

// parseClass parses "[...]" starting at '['.
func (p *parser) parseClass() (CharSet, error) {
	p.pos++ // consume '['
	var set CharSet
	negate := p.accept('^')
	first := true
	for {
		if p.eof() {
			return set, p.errorf("missing ']'")
		}
		if p.peek() == ']' && !first {
			p.pos++
			break
		}
		first = false
		lo, isSet, sub, err := p.classAtom()
		if err != nil {
			return set, err
		}
		if isSet {
			set.AddSet(sub)
			continue
		}
		// Possible range lo-hi.
		if !p.eof() && p.peek() == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] != ']' {
			p.pos++ // consume '-'
			hi, hiIsSet, _, err := p.classAtom()
			if err != nil {
				return set, err
			}
			if hiIsSet {
				return set, p.errorf("invalid range endpoint")
			}
			if hi < lo {
				return set, p.errorf("invalid class range %q-%q", lo, hi)
			}
			set.AddRange(lo, hi)
			continue
		}
		set.AddByte(lo)
	}
	if p.flags&FoldCase != 0 {
		set.Fold()
	}
	if negate {
		set.Negate()
	}
	if set.IsEmpty() {
		return set, p.errorf("empty character class")
	}
	return set, nil
}

// classAtom parses one class element: either a single byte (isSet=false)
// or a multi-byte escape class such as \d (isSet=true).
func (p *parser) classAtom() (b byte, isSet bool, set CharSet, err error) {
	c := p.next()
	if c != '\\' {
		return c, false, set, nil
	}
	if p.eof() {
		return 0, false, set, p.errorf("trailing backslash")
	}
	e := p.next()
	switch e {
	case 'd':
		return 0, true, Digit(), nil
	case 'D':
		return 0, true, negated(Digit()), nil
	case 'w':
		return 0, true, Word(), nil
	case 'W':
		return 0, true, negated(Word()), nil
	case 's':
		return 0, true, Space(), nil
	case 'S':
		return 0, true, negated(Space()), nil
	}
	b, err = p.escapedByte(e)
	return b, false, set, err
}

// parseEscape parses a top-level escape sequence starting at '\'.
func (p *parser) parseEscape() (*Node, error) {
	p.pos++ // consume '\'
	if p.eof() {
		return nil, p.errorf("trailing backslash")
	}
	e := p.next()
	var set CharSet
	switch e {
	case 'd':
		set = Digit()
	case 'D':
		set = negated(Digit())
	case 'w':
		set = Word()
	case 'W':
		set = negated(Word())
	case 's':
		set = Space()
	case 'S':
		set = negated(Space())
	case 'b', 'B', 'A', 'z', 'Z':
		return nil, p.errorf(`escape \%c (zero-width assertion) is not supported`, e)
	default:
		b, err := p.escapedByte(e)
		if err != nil {
			return nil, err
		}
		set.AddByte(b)
		if p.flags&FoldCase != 0 {
			set.Fold()
		}
	}
	return &Node{Op: OpClass, Set: set}, nil
}

// escapedByte resolves a single-byte escape whose introducing character e
// has already been consumed.
func (p *parser) escapedByte(e byte) (byte, error) {
	switch e {
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 't':
		return '\t', nil
	case 'f':
		return '\f', nil
	case 'v':
		return '\v', nil
	case 'a':
		return 7, nil
	case 'e':
		return 27, nil
	case '0':
		return 0, nil
	case 'x':
		var v, n int
		for n < 2 && !p.eof() && isHex(p.peek()) {
			v = v*16 + hexVal(p.next())
			n++
		}
		if n == 0 {
			return 0, p.errorf(`\x must be followed by hex digits`)
		}
		return byte(v), nil
	}
	if e >= '1' && e <= '9' {
		return 0, p.errorf("backreferences are not supported")
	}
	// Any other escaped character stands for itself (\., \*, \/, ...).
	return e, nil
}

func isHex(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F'
}

func hexVal(b byte) int {
	switch {
	case b <= '9':
		return int(b - '0')
	case b >= 'a':
		return int(b-'a') + 10
	default:
		return int(b-'A') + 10
	}
}
