package frontend_test

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"

	"xixa/internal/frontend"
	"xixa/internal/server"
	"xixa/internal/tpox"
)

// BenchmarkServeConnPointTuned is one client of a tuned server over the
// line protocol, in process: raw TPoX key-equality lines over net.Pipe
// into Shell.ServeConn, one reply read per line. Keys are drawn
// Zipf(1.1) over the 3,500 keys of SECURITY, ORDERS and CUSTACC, as
// xixabench's point-tuned workload draws them, so an op is what a
// point-tuned statement costs the daemon: line scan, parse, plan,
// index probe, preview and summary, minus the socket.
func BenchmarkServeConnPointTuned(b *testing.B) {
	db, err := tpox.NewDatabase(1)
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(db, server.Config{BuildAfter: 1})
	defer srv.Close()
	tables := [][]string{
		keyLines(1000, func(i int) string {
			return fmt.Sprintf(`for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "%s" return $sec`, tpox.SymbolOf(i))
		}),
		keyLines(2000, func(i int) string {
			return fmt.Sprintf(`for $o in ORDERS('ODOC')/Order where $o/@ID = "ORD%07d" return $o`, i)
		}),
		keyLines(500, func(i int) string {
			return fmt.Sprintf(`for $c in CUSTACC('CADOC')/Customer where $c/@id = "C%05d" return $c`, i)
		}),
	}

	client, conn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		frontend.New(srv).ServeConn(conn, conn)
		conn.Close()
	}()
	defer func() {
		client.Close()
		<-done
	}()
	r := bufio.NewReader(client)
	// reply reads one reply and returns its OK or ERR line.
	reply := func() string {
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				b.Fatal(err)
			}
			if !strings.HasPrefix(line, "| ") {
				return line
			}
		}
	}
	roundTrip := func(line string) string {
		if _, err := client.Write([]byte(line)); err != nil {
			b.Fatal(err)
		}
		return reply()
	}
	reply() // the greeting

	// Prime the capture with every table's lookups, then tune twice:
	// the advisor recommends the three key indexes and they are built.
	for i := 0; i < 16; i++ {
		for _, lines := range tables {
			roundTrip(lines[i*7%len(lines)])
		}
	}
	for i := 0; i < 2; i++ {
		if reply := roundTrip("\\tune\n"); !strings.HasPrefix(reply, "OK ") {
			b.Fatalf("tune: %q", reply)
		}
	}

	rng := rand.New(rand.NewSource(1))
	var zipf []*rand.Zipf
	for _, lines := range tables {
		zipf = append(zipf, rand.NewZipf(rng, 1.1, 1, uint64(len(lines)-1)))
	}
	draws := make([]string, 1<<14)
	for i := range draws {
		t := rng.Intn(len(tables))
		draws[i] = tables[t][zipf[t].Uint64()]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reply := roundTrip(draws[i%len(draws)]); !strings.HasPrefix(reply, "OK 1 results, ") || !strings.Contains(reply, " 1 index entries, ") {
			b.Fatalf("%q: %q, want one result found through an index", draws[i%len(draws)], reply)
		}
	}
}

// keyLines renders n statements, each with its newline.
func keyLines(n int, stmt func(i int) string) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = stmt(i) + "\n"
	}
	return lines
}
