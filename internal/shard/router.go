package shard

import (
	"hash/fnv"

	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// hashString maps a partition-key value to a shard. FNV-1a keeps the
// placement a pure function of the value, so any router instance (and
// any future remote node) agrees on ownership without coordination.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// exactLabels flattens a path into its label chain if — and only if —
// the path selects exactly the nodes spelled by those labels: child
// axes, named tests (attributes "@name"), no wildcards, no predicates.
// Any construct that widens or filters the selection makes the chain
// unusable for key matching, and the router falls back to scatter.
func exactLabels(p xpath.Path) ([]string, bool) {
	labels := make([]string, 0, len(p.Steps))
	for _, st := range p.Steps {
		if st.Axis != xpath.Child || st.IsWildcard() || len(st.Preds) != 0 {
			return nil, false
		}
		labels = append(labels, st.Test)
	}
	return labels, len(labels) > 0
}

// insertShard picks the owning shard for an inserted document: the
// hash of the partition-key value when the document carries exactly
// one key node. A document with zero or several key nodes latches the
// table to scatter-only — the key no longer identifies one shard, so
// keyed statements must see every shard from then on — and falls back
// to hashing the raw statement, which keeps placement deterministic
// for replay.
func (rt *tableRoute) insertShard(stmt *xquery.Statement, n int) int {
	if n == 1 {
		return 0
	}
	if rt.keyed && !rt.scatterOnly.Load() && stmt.Doc != nil {
		nodes := xpath.Eval(stmt.Doc, rt.key)
		if len(nodes) == 1 {
			// Trim exactly as engine equality does (CompareNodeValue
			// compares TrimSpace'd node text against the literal), so a
			// whitespace-padded key lands on the shard its equality pins
			// route to.
			return int(hashString(stmt.Doc.TrimmedText(nodes[0])) % uint64(n))
		}
		rt.scatterOnly.Store(true)
	}
	return int(hashString(stmt.Raw) % uint64(n))
}

// pinnedShard reports whether the statement is provably single-shard:
// its predicate path pins the table's partition key with a string
// equality. Detection is conservative — only exact label chains (no
// wildcards, no descendant axes) ending in an OpEq against a string
// literal count — because a missed pin merely costs a scatter, while a
// wrong pin would lose results. Queries route by their normalized
// path (where-conditions folded in as predicates); deletes and
// updates by their match path.
func (c *Cluster) pinnedShard(stmt *xquery.Statement) (int, bool) {
	if c.n == 1 {
		// One shard owns everything; even statements the router cannot
		// analyze are trivially single-shard.
		return 0, true
	}
	rt := c.route(stmt.Table)
	if rt == nil || !rt.keyed || rt.scatterOnly.Load() {
		return 0, false
	}
	var p xpath.Path
	switch stmt.Kind {
	case xquery.Query:
		p = stmt.NormalizedPath()
	case xquery.Delete, xquery.Update:
		p = stmt.Match
	default:
		return 0, false
	}
	if p.Relative {
		return 0, false
	}
	// Walk the label prefix of the path; at each step, a [rel = "lit"]
	// predicate pins the rooted path prefix+rel. A step that widens
	// the selection (descendant axis, wildcard) makes the prefix
	// inexact, and with it every deeper predicate's rooted path — so
	// the first such step ends the analysis as unpinnable.
	prefix := make([]string, 0, len(p.Steps))
	for _, st := range p.Steps {
		if st.Axis != xpath.Child || st.IsWildcard() {
			return 0, false
		}
		prefix = append(prefix, st.Test)
		for _, pred := range st.Preds {
			if pred.Op != xpath.OpEq || pred.Lit.Kind != xpath.StringVal {
				continue
			}
			rel, ok := exactLabels(pred.Rel)
			if !ok {
				continue
			}
			if labelsEqual(append(prefix[:len(prefix):len(prefix)], rel...), rt.labels) {
				return int(hashString(pred.Lit.Str) % uint64(c.n)), true
			}
		}
	}
	return 0, false
}

// updateMayTargetKey reports whether an update can rewrite the table's
// partition-key leaf. The engine resolves the leaves it rewrites by
// evaluating Concat(Match.StripPreds(), SetPath) over each matched
// document (engine.runUpdate), so the same chain decides reachability
// here: the key path is an exact linear chain, so Contains(chain, key)
// holds iff the chain can resolve to the key's rooted label path.
// Predicates are stripped from both halves — they only narrow the
// target set — making the answer a conservative superset: a false
// positive merely forfeits the single-shard fast path, never
// correctness.
func (rt *tableRoute) updateMayTargetKey(stmt *xquery.Statement) bool {
	chain := xpath.Concat(stmt.Match.StripPreds(), stmt.SetPath.StripPreds())
	return xpath.Contains(chain, rt.key)
}

func labelsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
