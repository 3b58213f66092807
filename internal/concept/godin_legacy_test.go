package concept

import (
	"testing"

	"repro/internal/bitset"
)

// godinLegacy is the unpruned Godin iteration — a full scan of the
// pre-insertion concept snapshot. It is the differential oracle the pruned
// step (godinInsert) is pinned against and the unpruned baseline of
// BenchmarkIncremental.
func (l *Lattice) godinLegacy(o int, row *bitset.Set, scratch *bitset.Set) {
	n := len(l.concepts)
	for i := 0; i < n; i++ {
		c := l.concepts[i]
		if bitset.IntersectEqualsInto(scratch, c.Intent, row) {
			l.arena.EnsureBits(c.Extent, o+1)
			c.Extent.Add(o)
			continue
		}
		if l.idx.lookup(l.concepts, scratch) >= 0 {
			continue
		}
		inter := l.arena.Clone(scratch)
		l.newConcept(tauUpToArena(l.arena, l.ctx, inter, o), inter)
	}
}

// buildLegacy is BuildCtx with the full-scan Godin step and serial cover
// linking. The scratch intersection lives on the heap (IntersectEqualsInto's
// dst must not alias its operands) and is materialized into the arena only
// when it is a novel intent.
func buildLegacy(c *Context) *Lattice {
	arena := bitset.NewArena()
	numObj, numAttr := c.NumObjects(), c.NumAttributes()
	l := &Lattice{ctx: c, arena: arena}
	l.idx.initFor(256)
	l.newConcept(arena.Set(numObj, numObj), arena.Set(numAttr, numAttr).FillFull(numAttr))
	scratch := &bitset.Set{}
	for o := 0; o < numObj; o++ {
		l.godinLegacy(o, c.Attributes(o), scratch)
	}
	l.finalize()
	return l
}

// addObjectLegacy is AddObjectCtx with the full-scan Godin step in place of
// the pruned one; cover repair and the table updates are shared.
func (l *Lattice) addObjectLegacy(name string, row *bitset.Set) {
	l.repsEnsure()
	o := l.ctx.NumObjects()
	l.ctx.addObject(name, row)
	row = l.ctx.Attributes(o)
	firstNew := len(l.concepts)
	l.godinLegacy(o, row, &bitset.Set{})
	key := string(row.AppendKey(nil))
	if _, dup := l.repRows[key]; !dup {
		l.repRows[key] = &rowCache{}
		l.reps = append(l.reps, int32(o))
	}
	l.repairCoversAfterAdd(firstNew)
	l.rescanTopBottom()
	l.updateTablesAfterAdd(o)
}

// legacySnapshot is the WriteSnapshot bytes of the full-scan build over a
// copy of c.
func legacySnapshot(t testing.TB, c *Context) []byte {
	t.Helper()
	return snapshotBytes(t, buildLegacy(c.clone()))
}
