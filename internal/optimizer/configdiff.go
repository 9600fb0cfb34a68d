package optimizer

import (
	"sort"

	"xixa/internal/xindex"
)

// DiffConfigs compares the materialized index configuration against a
// recommended one and returns the definitions to build (recommended but
// not materialized) and to drop (materialized but no longer
// recommended), each sorted by canonical key. Identity is the
// definition key (table, predicate-stripped pattern, type) — the same
// identity the catalog and the sub-configuration cache use — so a
// recommendation that re-derives an equivalent pattern with different
// cosmetic predicates does not churn the catalog.
func DiffConfigs(materialized, recommended []xindex.Definition) (toBuild, toDrop []xindex.Definition) {
	have := make(map[string]bool, len(materialized))
	for _, def := range materialized {
		have[def.Key()] = true
	}
	want := make(map[string]bool, len(recommended))
	for _, def := range recommended {
		key := def.Key()
		if want[key] {
			continue // duplicate in recommendation
		}
		want[key] = true
		if !have[key] {
			toBuild = append(toBuild, def)
		}
	}
	for _, def := range materialized {
		if !want[def.Key()] {
			toDrop = append(toDrop, def)
		}
	}
	byKey := func(defs []xindex.Definition) {
		sort.Slice(defs, func(i, j int) bool { return defs[i].Key() < defs[j].Key() })
	}
	byKey(toBuild)
	byKey(toDrop)
	return toBuild, toDrop
}

// Hysteresis is the tuning loops' streak bookkeeping: it keeps a
// churning workload from thrashing a configuration. A definition must
// stay in the build diff for BuildAfter consecutive rounds before it
// matures, and in the drop diff for DropAfter consecutive rounds; a
// definition leaving either diff for one round starts over.
type Hysteresis struct {
	BuildAfter, DropAfter int
	build, drop           map[string]int
}

// Step advances the streaks by one round's DiffConfigs output and
// returns the definitions whose streak matured this round.
func (h *Hysteresis) Step(toBuild, toDrop []xindex.Definition) (buildNow, dropNow []xindex.Definition) {
	buildNow, h.build = advanceStreaks(h.build, toBuild, h.BuildAfter)
	dropNow, h.drop = advanceStreaks(h.drop, toDrop, h.DropAfter)
	return buildNow, dropNow
}

// Pending counts the definitions still accumulating streak toward a
// build and toward a drop.
func (h *Hysteresis) Pending() (build, drop int) { return len(h.build), len(h.drop) }

func advanceStreaks(streak map[string]int, defs []xindex.Definition, after int) (matured []xindex.Definition, next map[string]int) {
	next = make(map[string]int, len(defs))
	for _, def := range defs {
		key := def.Key()
		if n := streak[key] + 1; n >= after {
			matured = append(matured, def)
		} else {
			next[key] = n
		}
	}
	return matured, next
}
