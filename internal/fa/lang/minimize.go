package lang

import (
	"fmt"
	"sort"

	"repro/internal/fa"
)

// partition runs Hopcroft's partition refinement over the complete DFA
// and returns one block id per state such that two states share a block
// iff they accept the same residual language. Blocks are renumbered in
// order of their smallest state, so the result is deterministic.
func (d *DFA) partition() []int {
	n := len(d.Accept)
	if n == 0 {
		return nil
	}
	k := len(d.Alphabet)

	// CSR inverse delta per symbol: predecessors of each state.
	inv := make([][]int32, k)
	invOff := make([][]int32, k)
	for c := 0; c < k; c++ {
		cnt := make([]int32, n+1)
		for s := 0; s < n; s++ {
			cnt[d.Delta[s][c]+1]++
		}
		for i := 1; i <= n; i++ {
			cnt[i] += cnt[i-1]
		}
		fill := append([]int32(nil), cnt...)
		list := make([]int32, n)
		for s := 0; s < n; s++ {
			to := d.Delta[s][c]
			list[fill[to]] = int32(s)
			fill[to]++
		}
		inv[c] = list
		invOff[c] = cnt
	}

	// Refinable partition: states grouped contiguously in elems, with
	// loc/blk back-pointers and [first, past) block boundaries.
	elems := make([]int32, 0, n)
	loc := make([]int32, n)
	blk := make([]int32, n)
	var first, past []int32
	newBlock := func(states []int32) int32 {
		id := int32(len(first))
		first = append(first, int32(len(elems)))
		for _, s := range states {
			loc[s] = int32(len(elems))
			blk[s] = id
			elems = append(elems, s)
		}
		past = append(past, int32(len(elems)))
		return id
	}
	var accepting, rejecting []int32
	for s := 0; s < n; s++ {
		if d.Accept[s] {
			accepting = append(accepting, int32(s))
		} else {
			rejecting = append(rejecting, int32(s))
		}
	}
	if len(accepting) > 0 {
		newBlock(accepting)
	}
	if len(rejecting) > 0 {
		newBlock(rejecting)
	}

	type splitter struct{ block, sym int32 }
	var work []splitter
	inWork := make([][]bool, len(first))
	for b := range inWork {
		inWork[b] = make([]bool, k)
	}
	// Seed with the smaller initial block (either works when one is all
	// of Q; Hopcroft's saving is picking the smaller when there are two).
	seed := int32(0)
	if len(first) == 2 && len(rejecting) < len(accepting) {
		seed = 1
	}
	for c := 0; c < k; c++ {
		inWork[seed][c] = true
		work = append(work, splitter{seed, int32(c)})
	}

	mark := make([]int32, len(first))
	var touched []int32
	var aSnap []int32
	for len(work) > 0 {
		sp := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[sp.block][sp.sym] = false

		// Snapshot the splitter block's members: splitting below may
		// rearrange it while we're iterating.
		aSnap = append(aSnap[:0], elems[first[sp.block]:past[sp.block]]...)
		touched = touched[:0]
		for _, q := range aSnap {
			lo, hi := invOff[sp.sym][q], invOff[sp.sym][q+1]
			for _, p := range inv[sp.sym][lo:hi] {
				b := blk[p]
				if mark[b] == 0 {
					touched = append(touched, b)
				}
				// Swap p into the marked prefix of its block. A complete
				// DFA gives each p one successor per symbol, so p is
				// visited at most once per splitter.
				i := loc[p]
				j := first[b] + mark[b]
				other := elems[j]
				elems[i], elems[j] = other, p
				loc[p], loc[other] = j, i
				mark[b]++
			}
		}
		for _, b := range touched {
			m := mark[b]
			mark[b] = 0
			size := past[b] - first[b]
			if m == size {
				continue
			}
			// The marked prefix becomes a new block.
			nb := int32(len(first))
			first = append(first, first[b])
			past = append(past, first[b]+m)
			first[b] += m
			for i := first[nb]; i < past[nb]; i++ {
				blk[elems[i]] = nb
			}
			mark = append(mark, 0)
			inWork = append(inWork, make([]bool, k))
			for c := int32(0); c < int32(k); c++ {
				if inWork[b][c] {
					inWork[nb][c] = true
					work = append(work, splitter{nb, c})
					continue
				}
				target := nb
				if m > size-m {
					target = b
				}
				inWork[target][c] = true
				work = append(work, splitter{target, c})
			}
		}
	}

	// Renumber blocks by smallest member for a canonical result.
	renum := make([]int, len(first))
	for i := range renum {
		renum[i] = -1
	}
	out := make([]int, n)
	next := 0
	for s := 0; s < n; s++ {
		b := blk[s]
		if renum[b] < 0 {
			renum[b] = next
			next++
		}
		out[s] = renum[b]
	}
	return out
}

// Minimize returns the minimal trimmed deterministic automaton for f's
// language: subset-construction compile over f's own alphabet, Hopcroft
// partition refinement, quotient, trim. An automaton with wildcard
// transitions is an error: expanding them over f's alphabet would drop
// every trace with an event outside it, silently narrowing the language.
func Minimize(f *fa.FA) (*fa.FA, error) {
	if f.HasWildcard() {
		return nil, fmt.Errorf("lang: cannot minimize %q: it has wildcard transitions", f.Name())
	}
	d, err := Compile(f, f.Alphabet())
	if err != nil {
		return nil, err
	}
	blk := d.partition()
	nb := 0
	for _, b := range blk {
		if b+1 > nb {
			nb = b + 1
		}
	}
	rep := make([]int, nb)
	for i := range rep {
		rep[i] = -1
	}
	for s, b := range blk {
		if rep[b] < 0 {
			rep[b] = s
		}
	}
	b := fa.NewBuilder(f.Name())
	ss := b.States(nb)
	b.Start(ss[blk[d.Start]])
	for bi, r := range rep {
		if d.Accept[r] {
			b.Accept(ss[bi])
		}
		for c, to := range d.Delta[r] {
			b.Edge(ss[bi], d.Alphabet[c], ss[blk[to]])
		}
	}
	return b.MustBuild().Trim(), nil
}

// EquivalentStates groups the useful states (reachable and on some
// accepting path) of a deterministic automaton by residual language:
// every returned group has at least two states that could be merged
// without changing the language. Groups and their members come out in
// ascending state order. Nondeterministic automata are rejected — merging
// suggestions over subsets would not name the author's states.
func EquivalentStates(f *fa.FA) ([][]int, error) {
	if !f.IsDeterministic() {
		return nil, fmt.Errorf("lang: EquivalentStates requires a deterministic automaton, %q is not", f.Name())
	}
	alpha, idx, err := normalizeAlphabet(f.Alphabet())
	if err != nil {
		return nil, err
	}
	n := f.NumStates()
	k := len(alpha)
	// States 0..n-1 plus an explicit sink at n make the delta total.
	d := &DFA{Alphabet: alpha, symIdx: idx}
	d.Accept = make([]bool, n+1)
	d.Delta = make([][]int32, n+1)
	for s := 0; s <= n; s++ {
		row := make([]int32, k)
		for c := range row {
			row[c] = int32(n)
		}
		d.Delta[s] = row
	}
	for _, t := range f.Transitions() {
		if fa.IsWildcard(t.Label) {
			for c := 0; c < k; c++ {
				d.Delta[t.From][c] = int32(t.To)
			}
			continue
		}
		d.Delta[t.From][idx[t.Label.String()]] = int32(t.To)
	}
	for _, s := range f.AcceptStates() {
		d.Accept[int(s)] = true
	}
	starts := f.StartStates()
	d.Start = n // no start state: everything is residual-equal to the sink
	if len(starts) == 1 {
		d.Start = int(starts[0])
	}
	blk := d.partition()

	reach := Reachable(f)
	coreach := Coreachable(f)
	groups := map[int][]int{}
	for s := 0; s < n; s++ {
		if reach[s] && coreach[s] {
			groups[blk[s]] = append(groups[blk[s]], s)
		}
	}
	var out [][]int
	for _, g := range groups {
		if len(g) > 1 {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out, nil
}
