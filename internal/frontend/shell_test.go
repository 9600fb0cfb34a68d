package frontend

import (
	"bufio"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xixa/internal/server"
	"xixa/internal/storage"
	"xixa/internal/xmltree"
	"xixa/internal/xquery"
)

// TestPreview pins a result document's reply line to what cutting the
// full serialization gives: "| ", SerializeString(doc) cut at 120
// bytes with "..." appended, and a newline.
func TestPreview(t *testing.T) {
	// text makes a document whose serialization is <a>...</a> with body
	// of n bytes of x, then tail.
	text := func(n int, tail string) *xmltree.Document {
		return xmltree.MustParse("<a>" + strings.Repeat("x", n) + tail + "</a>")
	}
	for _, tc := range []struct {
		name   string
		doc    *xmltree.Document
		xmlLen int // len(SerializeString(doc)), to keep each case honest
	}{
		{"short", text(2, ""), 9},
		{"exactly 120", text(113, ""), 120},
		{"exactly 121", text(114, ""), 121},
		{"long", xmltree.MustParse(`<Security id="7"><Symbol>SYM00007</Symbol><Name>` + strings.Repeat("long name ", 20) + `</Name></Security>`), 266},
		{"&amp; straddles byte 120", text(115, "&amp;tail"), 131}, // &amp; is bytes 118..122
		{"&#34; straddles byte 120", text(114, `"tail`), 130},     // &#34; is bytes 117..121
		{"entity ends at byte 120", text(112, "&amp;"), 124},      // &amp; is bytes 115..119
		{"attribute entity straddles", xmltree.MustParse(`<a b="` + strings.Repeat("y", 112) + `&amp;z"/>`), 127},
		{"empty document", &xmltree.Document{}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full := xmltree.SerializeString(tc.doc)
			if len(full) != tc.xmlLen {
				t.Fatalf("serialization is %d bytes, the case needs %d: %q", len(full), tc.xmlLen, full)
			}
			want := full
			if len(want) > 120 {
				want = want[:120] + "..."
			}
			want = "| " + want + "\n"
			var sb strings.Builder
			out := bufio.NewWriter(&sb)
			writePreview(out, tc.doc)
			out.Flush()
			if sb.String() != want {
				t.Fatalf("preview\n  %q\nwant\n  %q", sb.String(), want)
			}
		})
	}
}

// recordingBackend is a server that notes every statement pointer its
// sessions execute.
type recordingBackend struct {
	*server.Server
	mu       sync.Mutex
	executed []*xquery.Statement
}

type recordingSession struct {
	*server.Session
	b *recordingBackend
}

func (b *recordingBackend) NewSession() (*recordingSession, error) {
	sess, err := b.Server.NewSession()
	if err != nil {
		return nil, err
	}
	return &recordingSession{Session: sess, b: b}, nil
}

func (s *recordingSession) ExecuteStmt(stmt *xquery.Statement) (*server.Result, error) {
	s.b.mu.Lock()
	s.b.executed = append(s.b.executed, stmt)
	s.b.mu.Unlock()
	return s.Session.ExecuteStmt(stmt)
}

func newRecordingShell(t *testing.T) (*Shell, *recordingBackend) {
	t.Helper()
	db := storage.NewDatabase()
	db.MustCreateTable("SECURITY")
	srv := server.New(db, server.Config{BuildAfter: 1, DropAfter: 1})
	t.Cleanup(srv.Close)
	b := &recordingBackend{Server: srv}
	return New(b), b
}

// serveLines runs one connection over the lines and returns its reply
// lines after the greeting.
func serveLines(sh *Shell, lines ...string) []string {
	var out strings.Builder
	sh.ServeConn(strings.NewReader(strings.Join(lines, "\n")+"\n"), &out)
	return strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")[1:]
}

func (sh *Shell) cachedStatements() int {
	sh.stmtsMu.RLock()
	defer sh.stmtsMu.RUnlock()
	return len(sh.stmts)
}

const (
	cachedInsert = `insert into SECURITY value <Security><Symbol>SYM1</Symbol><Yield>2</Yield></Security>`
	cachedPoint  = `for $s in SECURITY('SDOC')/Security where $s/Symbol = "SYM1" return $s`
	cachedAll    = `for $s in SECURITY('SDOC')/Security return $s`
)

// TestStatementCacheSharedAcrossConnections: the same query line sent
// on two connections at once executes one *Statement, the one the
// shell keeps, and both get the same replies.
func TestStatementCacheSharedAcrossConnections(t *testing.T) {
	sh, b := newRecordingShell(t)
	serveLines(sh, cachedInsert)
	lines := make([]string, 50)
	for i := range lines {
		lines[i] = cachedPoint
	}
	var wg sync.WaitGroup
	replies := make([][]string, 2)
	for c := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[c] = serveLines(sh, lines...)
		}()
	}
	wg.Wait()
	if strings.Join(replies[0], "\n") != strings.Join(replies[1], "\n") {
		t.Fatalf("the connections' replies differ:\n%q\n%q", replies[0], replies[1])
	}
	if got := replies[0][len(replies[0])-1]; !strings.HasPrefix(got, "OK 1 results, ") {
		t.Fatalf("point query reply %q", got)
	}
	sh.stmtsMu.RLock()
	kept := sh.stmts[cachedPoint]
	sh.stmtsMu.RUnlock()
	if kept == nil {
		t.Fatal("the query line is not kept")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	queries := b.executed[1:] // after the insert
	if len(queries) != 2*len(lines) {
		t.Fatalf("%d queries executed, want %d", len(queries), 2*len(lines))
	}
	for i, stmt := range queries {
		if stmt != kept {
			t.Fatalf("query %d executed %p, want the kept statement %p", i, stmt, kept)
		}
	}
}

// TestStatementCacheSkipsInserts: two identical insert lines insert two
// documents, and the shell keeps neither.
func TestStatementCacheSkipsInserts(t *testing.T) {
	sh, b := newRecordingShell(t)
	reply := serveLines(sh, cachedInsert, cachedInsert, cachedAll)
	if !strings.HasPrefix(reply[len(reply)-1], "OK 2 results, ") {
		t.Fatalf("after two identical inserts: %q", reply)
	}
	if b.executed[0] == b.executed[1] {
		t.Fatal("the two inserts executed one statement")
	}
	if n := sh.cachedStatements(); n != 1 {
		t.Fatalf("%d statements kept, want 1 (the query)", n)
	}
	sh.stmtsMu.RLock()
	defer sh.stmtsMu.RUnlock()
	if sh.stmts[cachedInsert] != nil {
		t.Fatal("an insert line is kept")
	}
}

// TestStatementCacheSkipsParseErrors: a line that does not parse is
// answered ERR every time and never kept.
func TestStatementCacheSkipsParseErrors(t *testing.T) {
	sh, _ := newRecordingShell(t)
	reply := serveLines(sh, "selec nonsense", "selec nonsense", "selec nonsense")
	if len(reply) != 3 {
		t.Fatalf("replies %q", reply)
	}
	for _, ln := range reply {
		if ln != reply[0] || !strings.HasPrefix(ln, "ERR ") {
			t.Fatalf("replies %q, want the same ERR three times", reply)
		}
	}
	if n := sh.cachedStatements(); n != 0 {
		t.Fatalf("%d statements kept after parse errors, want 0", n)
	}
}

// TestStatementCacheBounded: the map never holds more than
// maxCachedStatements, and starts over when full.
func TestStatementCacheBounded(t *testing.T) {
	sh, _ := newRecordingShell(t)
	for i := 0; i < maxCachedStatements+10; i++ {
		if _, err := sh.parse(fmt.Sprintf(`for $s in SECURITY('SDOC')/Security where $s/Symbol = "S%d" return $s`, i)); err != nil {
			t.Fatal(err)
		}
		if n := sh.cachedStatements(); n > maxCachedStatements {
			t.Fatalf("after %d distinct lines the map holds %d, bound %d", i+1, n, maxCachedStatements)
		}
	}
	if n := sh.cachedStatements(); n != 10 {
		t.Fatalf("the map holds %d after starting over, want 10", n)
	}
}
