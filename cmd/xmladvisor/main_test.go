package main

import (
	"bytes"
	"testing"

	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/wal"
	"xixa/internal/xindex"
	"xixa/internal/xpath"
)

// TestRebuildIndexesWarmStart asserts the catalog half of the image's
// contract: definitions persist, contents rebuild on load, and the
// rebuilt indexes answer probes exactly like the pre-image ones.
func TestRebuildIndexesWarmStart(t *testing.T) {
	db := storage.NewDatabase()
	if err := tpox.Generate(db, tpox.Config{Securities: 40, Orders: 10, Customers: 5, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table(tpox.TableSecurity)
	if err != nil {
		t.Fatal(err)
	}
	saved := []xindex.Definition{
		{Table: tpox.TableSecurity, Pattern: xpath.MustParsePattern("/Security/Symbol"), Type: xpath.StringVal},
		{Table: tpox.TableSecurity, Pattern: xpath.MustParsePattern("/Security/Yield"), Type: xpath.NumberVal},
	}
	var before []*xindex.Index
	for _, def := range saved {
		idx, err := xindex.Build(tbl, def)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, idx)
	}

	var buf bytes.Buffer
	if err := wal.SaveCheckpoint(&buf, db, saved, 0, 0); err != nil {
		t.Fatal(err)
	}
	db2, defs, _, _, err := wal.LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := rebuildIndexes(db2, defs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != len(before) {
		t.Fatalf("rebuilt %d indexes, want %d", len(rebuilt), len(before))
	}
	for i := range rebuilt {
		if rebuilt[i].Def.Key() != before[i].Def.Key() {
			t.Fatalf("rebuilt[%d] = %s, want %s", i, rebuilt[i].Def, before[i].Def)
		}
		if rebuilt[i].Entries() != before[i].Entries() {
			t.Fatalf("%s: rebuilt %d entries, had %d", rebuilt[i].Def, rebuilt[i].Entries(), before[i].Entries())
		}
	}

	// Unknown table fails loudly instead of silently skipping.
	if _, err := rebuildIndexes(storage.NewDatabase(), defs); err == nil {
		t.Fatal("rebuildIndexes against empty database succeeded")
	}
}
