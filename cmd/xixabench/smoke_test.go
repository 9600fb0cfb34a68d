package main

import (
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload for one second over the real daemon
// (built from ./cmd/xixad), then the traced pass of the workload with
// the most layers, and checks the set it writes. No bounds apply.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns xixad; skipped with -short")
	}
	out := t.TempDir()
	if code := run([]string{"-smoke", "-out", out}); code != 0 {
		t.Fatalf("xixabench -smoke exited %d", code)
	}
	s, err := readSet(filepath.Join(out, "set-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Claim != nil {
		t.Errorf("claim = %v, want null", s.Claim)
	}
	for _, d := range workloadDefs {
		r := s.Workloads[d.Name]
		if r == nil {
			t.Fatalf("no result for %s", d.Name)
		}
		if r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d (%s)", d.Name, r.Attempted, r.Failed, r.FirstFailure)
		}
		for _, md := range endToEnd {
			if v := r.Metrics[md.Name]; v.Value <= 0 || v.Unit != md.Unit {
				t.Errorf("%s: %s = %+v", d.Name, md.Name, v)
			}
		}
	}
	if lost := s.Workloads["write-durable"].AckedLost; lost == nil || *lost != 0 {
		t.Errorf("write-durable acked_lost = %v, want 0", lost)
	}

	if code := run([]string{"-smoke", "-workload", "write-durable", "-trace", "1", "-out", out}); code != 0 {
		t.Fatalf("traced write-durable exited %d", code)
	}
	s, err = readSet(filepath.Join(out, "run-write-durable-seed1-trace1.json"))
	if err != nil {
		t.Fatal(err)
	}
	r := s.Workloads["write-durable"]
	for _, name := range []string{"xixad.wire_us", "wal.append_sync_us", "wal.fsyncs_per_commit", "storage.commit_us", "server.exec_us", "client.loopback_rtt_us"} {
		if r.Layers[name].Value <= 0 {
			t.Errorf("write-durable: %s = %v, want > 0", name, r.Layers[name].Value)
		}
	}
	if len(r.Layers) != len(perLayer) || len(r.LayerTable) == 0 {
		t.Errorf("write-durable: %d of %d layer metrics, %d table rows", len(r.Layers), len(perLayer), len(r.LayerTable))
	}
}
