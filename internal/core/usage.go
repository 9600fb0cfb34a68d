package core

import (
	"xixa/internal/xindex"
	"xixa/internal/xquery"
)

// UsageReport records, for a configuration, which indexes the optimizer
// actually uses across the workload's plans. The paper motivates tight
// coupling precisely so that "the indexes that we recommend are
// actually used by the optimizer in the query execution plans" (§I);
// this report verifies that property for any configuration.
type UsageReport struct {
	// UsedBy maps candidate IDs to the workload statement ordinals
	// whose chosen plan uses that index.
	UsedBy map[int][]int
	// Unused lists the configuration's never-used candidates.
	Unused []*Candidate
}

// ValidateUsage optimizes every workload statement under the
// configuration and reports which indexes appear in the chosen plans.
func (a *Advisor) ValidateUsage(cfg []*Candidate) (*UsageReport, error) {
	defs := make([]xindex.Definition, len(cfg))
	byKey := make(map[string]*Candidate, len(cfg))
	for i, c := range cfg {
		defs[i] = c.Def
		byKey[c.Def.Key()] = c
	}
	rep := &UsageReport{UsedBy: make(map[int][]int)}
	for ord, item := range a.W.Items {
		if item.Stmt.Kind == xquery.Insert {
			continue // inserts never use indexes
		}
		plan, err := a.Opt.EvaluateIndexes(item.Stmt, defs)
		if err != nil {
			continue
		}
		for _, acc := range plan.Accesses {
			if c, ok := byKey[acc.Index.Key()]; ok {
				rep.UsedBy[c.ID] = append(rep.UsedBy[c.ID], ord)
			}
		}
	}
	for _, c := range cfg {
		if len(rep.UsedBy[c.ID]) == 0 {
			rep.Unused = append(rep.Unused, c)
		}
	}
	return rep, nil
}
