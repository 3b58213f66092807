package fa

import (
	"fmt"
	"strings"

	"repro/internal/event"
)

// This file implements a small regular-expression compiler over event
// alphabets, used to author specifications and Focus templates the way the
// paper writes them, e.g. the seed-order template
//
//	(event0 | event1 | ... | eventN)* ; seed ; (event0 | ... | eventN)*
//
// Grammar (whitespace-insensitive except inside event literals):
//
//	expr    = term { "|" term }
//	term    = factor { [";"] factor }        concatenation, ";" optional
//	factor  = atom [ "*" | "+" | "?" ]
//	atom    = "(" expr ")" | "." | eventLit
//	eventLit = an event in event.Parse syntax, e.g. "X = fopen()" or "fclose(X)"
//
// "." is the wildcard, matching any single event. Compilation is Thompson's
// construction with ε-transitions eliminated on the fly; the result is an
// NFA that internal/fa/lang can determinize and minimize further.

// Compile parses the pattern and returns an automaton for its language.
func Compile(name, pattern string) (*FA, error) {
	p := &rxParser{input: pattern}
	ast, err := p.parseExpr()
	if err != nil {
		return nil, fmt.Errorf("fa: compile %q: %v", pattern, err)
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, fmt.Errorf("fa: compile %q: trailing input at offset %d", pattern, p.pos)
	}
	return buildRx(name, ast)
}

// MustCompile is Compile that panics on error, for static patterns.
func MustCompile(name, pattern string) *FA {
	f, err := Compile(name, pattern)
	if err != nil {
		panic(err)
	}
	return f
}

// --- AST -------------------------------------------------------------------

type rxNode interface{ rx() }

type rxEvent struct{ e event.Event }
type rxWild struct{}
type rxSeq struct{ parts []rxNode }
type rxAlt struct{ parts []rxNode }
type rxStar struct{ sub rxNode }
type rxPlus struct{ sub rxNode }
type rxOpt struct{ sub rxNode }

func (rxEvent) rx() {}
func (rxWild) rx()  {}
func (rxSeq) rx()   {}
func (rxAlt) rx()   {}
func (rxStar) rx()  {}
func (rxPlus) rx()  {}
func (rxOpt) rx()   {}

// --- Parser ------------------------------------------------------------------

type rxParser struct {
	input string
	pos   int
}

func (p *rxParser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t' || p.input[p.pos] == '\n') {
		p.pos++
	}
}

func (p *rxParser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.input) {
		return 0
	}
	return p.input[p.pos]
}

func (p *rxParser) parseExpr() (rxNode, error) {
	first, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	parts := []rxNode{first}
	for p.peek() == '|' {
		p.pos++
		next, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	if len(parts) == 1 {
		return first, nil
	}
	return rxAlt{parts: parts}, nil
}

func (p *rxParser) parseTerm() (rxNode, error) {
	var parts []rxNode
	for {
		c := p.peek()
		if c == ';' {
			p.pos++
			continue
		}
		if c == 0 || c == '|' || c == ')' {
			break
		}
		f, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		parts = append(parts, f)
	}
	switch len(parts) {
	case 0:
		return rxSeq{}, nil // ε
	case 1:
		return parts[0], nil
	default:
		return rxSeq{parts: parts}, nil
	}
}

func (p *rxParser) parseFactor() (rxNode, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	switch p.peek() {
	case '*':
		p.pos++
		return rxStar{sub: atom}, nil
	case '+':
		p.pos++
		return rxPlus{sub: atom}, nil
	case '?':
		p.pos++
		return rxOpt{sub: atom}, nil
	}
	return atom, nil
}

func (p *rxParser) parseAtom() (rxNode, error) {
	switch p.peek() {
	case 0:
		return nil, fmt.Errorf("unexpected end of pattern")
	case '(':
		p.pos++
		sub, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("missing ) at offset %d", p.pos)
		}
		p.pos++
		return sub, nil
	case '.':
		p.pos++
		return rxWild{}, nil
	}
	return p.parseEventLit()
}

// parseEventLit scans an event literal up to and including its closing
// parenthesis: an identifier (possibly "name ="-prefixed) followed by a
// parenthesized argument list.
func (p *rxParser) parseEventLit() (rxNode, error) {
	p.skipSpace()
	start := p.pos
	open := strings.IndexByte(p.input[p.pos:], '(')
	if open < 0 {
		return nil, fmt.Errorf("event literal without argument list at offset %d", start)
	}
	close := strings.IndexByte(p.input[p.pos+open:], ')')
	if close < 0 {
		return nil, fmt.Errorf("unterminated event literal at offset %d", start)
	}
	end := p.pos + open + close + 1
	lit := p.input[start:end]
	e, err := event.Parse(lit)
	if err != nil {
		return nil, err
	}
	p.pos = end
	return rxEvent{e: e}, nil
}

// --- Thompson construction ---------------------------------------------------

// epsNFA is the intermediate automaton with ε-transitions: Thompson's
// construction builds one fragment per AST node, and ε-elimination turns
// the result into the package's ε-free FA representation.
type epsNFA struct {
	numStates int
	eps       map[int][]int
	edges     []epsEdge
}

type epsEdge struct {
	from, to int
	label    event.Event
	wild     bool
}

func (n *epsNFA) state() int {
	s := n.numStates
	n.numStates++
	return s
}

func (n *epsNFA) addEps(from, to int) { n.eps[from] = append(n.eps[from], to) }

// frag is a Thompson fragment with one entry and one exit state.
type frag struct{ in, out int }

func buildRx(name string, ast rxNode) (*FA, error) {
	n := &epsNFA{eps: map[int][]int{}}
	f := n.thompson(ast)

	// ε-closures by DFS from each state.
	closure := make([][]int, n.numStates)
	for s := 0; s < n.numStates; s++ {
		seen := map[int]bool{s: true}
		stack := []int{s}
		var cl []int
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cl = append(cl, cur)
			for _, t := range n.eps[cur] {
				if !seen[t] {
					seen[t] = true
					stack = append(stack, t)
				}
			}
		}
		closure[s] = cl
	}

	// ε-elimination: state s gains every labeled edge leaving its closure,
	// and accepts if its closure contains the fragment's exit.
	b := NewBuilder(name)
	states := b.States(n.numStates)
	b.Start(states[f.in])
	outBy := make(map[int][]epsEdge)
	for _, e := range n.edges {
		outBy[e.from] = append(outBy[e.from], e)
	}
	for s := 0; s < n.numStates; s++ {
		accept := false
		for _, t := range closure[s] {
			if t == f.out {
				accept = true
			}
			for _, e := range outBy[t] {
				if e.wild {
					b.WildcardEdge(states[s], states[e.to])
				} else {
					b.Edge(states[s], e.label, states[e.to])
				}
			}
		}
		if accept {
			b.Accept(states[s])
		}
	}
	fa, err := b.Build()
	if err != nil {
		return nil, err
	}
	return fa.Trim(), nil
}

// thompson builds the classic two-endpoint fragment for a node.
func (n *epsNFA) thompson(node rxNode) frag {
	switch node := node.(type) {
	case rxEvent:
		in, out := n.state(), n.state()
		n.edges = append(n.edges, epsEdge{from: in, to: out, label: node.e})
		return frag{in, out}
	case rxWild:
		in, out := n.state(), n.state()
		n.edges = append(n.edges, epsEdge{from: in, to: out, wild: true})
		return frag{in, out}
	case rxSeq:
		if len(node.parts) == 0 {
			s := n.state()
			return frag{s, s}
		}
		cur := n.thompson(node.parts[0])
		for _, part := range node.parts[1:] {
			next := n.thompson(part)
			n.addEps(cur.out, next.in)
			cur = frag{cur.in, next.out}
		}
		return cur
	case rxAlt:
		in, out := n.state(), n.state()
		for _, part := range node.parts {
			sub := n.thompson(part)
			n.addEps(in, sub.in)
			n.addEps(sub.out, out)
		}
		return frag{in, out}
	case rxStar:
		in, out := n.state(), n.state()
		sub := n.thompson(node.sub)
		n.addEps(in, sub.in)
		n.addEps(in, out)
		n.addEps(sub.out, sub.in)
		n.addEps(sub.out, out)
		return frag{in, out}
	case rxPlus:
		return n.thompson(rxSeq{parts: []rxNode{node.sub, rxStar{sub: node.sub}}})
	case rxOpt:
		in, out := n.state(), n.state()
		sub := n.thompson(node.sub)
		n.addEps(in, sub.in)
		n.addEps(in, out)
		n.addEps(sub.out, out)
		return frag{in, out}
	}
	panic("fa: unknown regex node")
}
