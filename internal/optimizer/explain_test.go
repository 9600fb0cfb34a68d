package optimizer

import (
	"fmt"
	"testing"

	"xixa/internal/xindex"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// The \explain command serves Plan.String: these tests pin what it says
// for each plan shape.

func TestExplainFullScan(t *testing.T) {
	_, opt := newFixture(t, 200)
	plan, err := opt.EvaluateIndexes(xquery.MustParse(oq1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("TBSCAN cost=%.0f", plan.EstCost); plan.String() != want {
		t.Errorf("explain = %q, want %q", plan.String(), want)
	}
	if plan.EstCost != plan.EstBaseCost {
		t.Errorf("scan cost %v != base cost %v", plan.EstCost, plan.EstBaseCost)
	}
}

func TestExplainSingleIndex(t *testing.T) {
	_, opt := newFixture(t, 200)
	cfg := []xindex.Definition{defOf("/Security/Symbol", xpath.StringVal)}
	plan, err := opt.EvaluateIndexes(xquery.MustParse(oq1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("IXAND(/Security/Symbol) cost=%.0f", plan.EstCost); plan.String() != want {
		t.Errorf("explain = %q, want %q", plan.String(), want)
	}
}

func TestExplainIndexANDing(t *testing.T) {
	_, opt := newFixture(t, 2000)
	cfg := []xindex.Definition{
		defOf("/Security/Yield", xpath.NumberVal),
		defOf("/Security/SecInfo/*/Sector", xpath.StringVal),
	}
	plan, err := opt.EvaluateIndexes(xquery.MustParse(oq2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Accesses) != 2 {
		t.Fatalf("plan has %d accesses, want an ANDing plan over 2", len(plan.Accesses))
	}
	want := fmt.Sprintf("IXAND(%s,%s) cost=%.0f",
		plan.Accesses[0].Index.Pattern, plan.Accesses[1].Index.Pattern, plan.EstCost)
	if plan.String() != want {
		t.Errorf("explain = %q, want %q", plan.String(), want)
	}
}

// TestExplainDML: an insert plans no index access even with a matching
// index, and a delete locates its documents through one.
func TestExplainDML(t *testing.T) {
	_, opt := newFixture(t, 100)
	cfg := []xindex.Definition{defOf("/Security/Symbol", xpath.StringVal)}
	ins, err := opt.EvaluateIndexes(xquery.MustParse(
		`insert into SECURITY value <Security><Symbol>X</Symbol></Security>`), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("TBSCAN cost=%.0f", ins.EstCost); ins.String() != want {
		t.Errorf("insert explain = %q, want %q", ins.String(), want)
	}
	del, err := opt.EvaluateIndexes(xquery.MustParse(
		`delete from SECURITY where /Security[Symbol="S00001"]`), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("IXAND(/Security/Symbol) cost=%.0f", del.EstCost); del.String() != want {
		t.Errorf("delete explain = %q, want %q", del.String(), want)
	}
}

func TestExplainCardinalityReasonable(t *testing.T) {
	_, opt := newFixture(t, 500)
	cfg := []xindex.Definition{defOf("/Security/Symbol", xpath.StringVal)}
	plan, err := opt.EvaluateIndexes(xquery.MustParse(oq1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A unique-key point query should estimate ~1 document out.
	if plan.EstMatchingDocs < 0.5 || plan.EstMatchingDocs > 5 {
		t.Errorf("point-query cardinality = %v, want ~1", plan.EstMatchingDocs)
	}
}
