package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
)

// serveScript answers each received line with the next scripted reply.
func serveScript(t *testing.T, replies []string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		w := bufio.NewWriter(c)
		fmt.Fprintln(w, "OK xixad session 1")
		w.Flush()
		r := bufio.NewReaderSize(c, 1<<20)
		for _, rep := range replies {
			if _, err := readLine(r); err != nil {
				return
			}
			w.WriteString(rep)
			w.Flush()
		}
	}()
	return ln.Addr().String()
}

func TestReplyFraming(t *testing.T) {
	long := strings.Repeat("x", 1<<20) // longer than the reader's buffer
	addr := serveScript(t, []string{
		"| <Security id=\"1\"/>\n| ... (44 more)\nOK 49 results, 31674 nodes scanned, 0 index entries, 0 docs fetched\n",
		"ERR xquery: expected TABLE('COL') source\n",
		"| " + long + "\n| \nOK 2 indexes, 72572 bytes total\n",
		"OK 1 results, 33 nodes scanned, 1 index entries, 1 docs fetched\r\n",
		"garbage\n",
	})
	cn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.close()

	rep, err := cn.roundTrip("q", true)
	if err != nil || !rep.ok || rep.results != 49 || rep.nodesScanned != 31674 || rep.indexEntries != 0 || rep.docsFetched != 0 {
		t.Fatalf("statement reply = %+v, %v", rep, err)
	}
	if len(rep.body) != 2 || rep.body[1] != "... (44 more)" {
		t.Errorf("body = %q", rep.body)
	}

	rep, err = cn.roundTrip("bogus", false)
	if err != nil || rep.ok || !strings.HasPrefix(rep.summary, "xquery: expected") {
		t.Fatalf("ERR reply = %+v, %v", rep, err)
	}

	rep, err = cn.roundTrip(`\indexes`, true)
	if err != nil || !rep.ok || rep.results != -1 || rep.summary != "2 indexes, 72572 bytes total" {
		t.Fatalf("meta reply = %+v, %v", rep, err)
	}
	if len(rep.body) != 2 || len(rep.body[0]) != 1<<20 || rep.body[1] != "" {
		t.Errorf("a 1 MiB line must arrive whole: got %d lines, first %d bytes", len(rep.body), len(rep.body[0]))
	}

	rep, err = cn.roundTrip("q", false)
	if err != nil || rep.results != 1 || rep.indexEntries != 1 || rep.body != nil {
		t.Fatalf("CRLF reply = %+v, %v", rep, err)
	}

	if _, err = cn.roundTrip("q", false); err == nil {
		t.Error("an unframed line must be a protocol error")
	}
}

func TestParseStatementOK(t *testing.T) {
	for _, bad := range []string{"", "bye", "1 results", "1 results, 2 nodes scanned, 3 index entries, 4 docs fetched, 5 more",
		"x results, 2 nodes scanned, 3 index entries, 4 docs fetched"} {
		if _, _, _, _, shaped := parseStatementOK([]byte(bad)); shaped {
			t.Errorf("%q parsed as a statement reply", bad)
		}
	}
}

func TestMetricsDelta(t *testing.T) {
	before := parseMetrics([]string{
		"# TYPE xixa_statement_seconds histogram",
		`xixa_statement_seconds_bucket{le="0.001"} 10`,
		`xixa_statement_seconds_bucket{le="0.002"} 10`,
		`xixa_statement_seconds_bucket{le="+Inf"} 10`,
		"xixa_statement_seconds_sum 0.005",
		"xixa_statement_seconds_count 10",
		`xixa_shard_statements_total{shard="0"} 7`,
	})
	after := parseMetrics([]string{
		`xixa_statement_seconds_bucket{le="0.001"} 60`,
		`xixa_statement_seconds_bucket{le="0.002"} 110`,
		`xixa_statement_seconds_bucket{le="+Inf"} 110`,
		"xixa_statement_seconds_sum 0.155",
		"xixa_statement_seconds_count 110",
		`xixa_shard_statements_total{shard="0"} 9`,
	})
	if after[`xixa_shard_statements_total{shard="0"}`] != 9 {
		t.Fatalf("labelled sample not parsed: %v", after)
	}
	h := histogramDelta(before, after, "xixa_statement_seconds")
	if h.count != 100 || h.mean() != 0.0015 {
		t.Errorf("delta count %v mean %v, want 100, 0.0015", h.count, h.mean())
	}
	// 50 observations at or below 1 ms, 50 in (1 ms, 2 ms]: the median
	// is the first bucket's upper edge, p75 halfway into the second.
	if q := h.quantile(0.5); q != 0.001 {
		t.Errorf("p50 = %v, want 0.001", q)
	}
	if q := h.quantile(0.75); q != 0.0015 {
		t.Errorf("p75 = %v, want 0.0015", q)
	}
}
