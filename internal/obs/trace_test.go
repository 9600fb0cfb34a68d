package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTracerRingNewestFirst(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		qt := tr.Begin("q")
		qt.Span("parse", time.Microsecond, 0)
		qt.Finish(nil)
	}
	last := tr.Last(0)
	if len(last) != 3 {
		t.Fatalf("ring holds %d, want 3", len(last))
	}
	if last[0].ID != 5 || last[1].ID != 4 || last[2].ID != 3 {
		t.Fatalf("want newest-first IDs [5 4 3], got [%d %d %d]", last[0].ID, last[1].ID, last[2].ID)
	}
	if one := tr.Last(1); len(one) != 1 || one[0].ID != 5 {
		t.Fatalf("Last(1) = %+v, want just ID 5", one)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	qt := tr.Begin("q")
	if qt != nil {
		t.Fatal("nil tracer must hand out nil traces")
	}
	i := qt.Span("parse", 0, 0)
	qt.AddNodes(i, NodeCard{})
	qt.Finish(errors.New("x"))
	if qt.Nodes() != nil {
		t.Fatal("nil trace has no nodes")
	}
	if tr.Last(5) != nil {
		t.Fatal("nil tracer has no history")
	}
}

func TestTraceSpansAndNodes(t *testing.T) {
	tr := NewTracer(4)
	qt := tr.Begin("SELECT doc FROM t WHERE /a/b")
	qt.Span("parse", 3*time.Microsecond, 0)
	scan := qt.Span("index scan", 40*time.Microsecond, 12)
	qt.AddNodes(scan, NodeCard{Op: "IXSCAN", Site: "/a/b|path", Est: 10, Actual: 12})
	verify := qt.Span("xpath verify", 20*time.Microsecond, 9)
	qt.AddNodes(verify, NodeCard{Op: "FILTER", Site: "/a/b", Est: 10, Actual: 9})
	qt.Finish(nil)

	got := tr.Last(1)[0]
	if len(got.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(got.Spans))
	}
	nodes := got.Nodes()
	if len(nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(nodes))
	}
	if nodes[0].Est != 10 || nodes[0].Actual != 12 {
		t.Fatalf("ixscan card = %+v, want est 10 actual 12", nodes[0])
	}
	if got.Total <= 0 {
		t.Fatal("Finish must stamp a positive total")
	}
}

func TestMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("xixa_txn_commits_total").Add(2)
	tr := NewTracer(4)
	qt := tr.Begin("SELECT 1")
	i := qt.Span("index scan", time.Millisecond, 5)
	qt.AddNodes(i, NodeCard{Op: "IXSCAN", Site: "/x|path", Est: 4, Actual: 5})
	qt.Finish(nil)

	srv := httptest.NewServer(NewMux(func() *Registry { return reg }, func() *Tracer { return tr }))
	defer srv.Close()

	body := get(t, srv.URL+"/metrics")
	if !strings.Contains(body, "xixa_txn_commits_total 2") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	body = get(t, srv.URL+"/trace/last?n=1")
	var traces []QueryTrace
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/trace/last not JSON: %v\n%s", err, body)
	}
	if len(traces) != 1 || len(traces[0].Spans) != 1 {
		t.Fatalf("trace shape wrong: %s", body)
	}
	n := traces[0].Spans[0].Nodes[0]
	if n.Est != 4 || n.Actual != 5 {
		t.Fatalf("node card = %+v, want est 4 actual 5", n)
	}

	body = get(t, srv.URL+"/debug/pprof/cmdline")
	if body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s -> %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
