package main

import (
	"bytes"
	"testing"
)

// fakeExpecter stands in for the oracle: counts derived from the text.
type fakeExpecter struct{}

func (fakeExpecter) countStatement(raw string) (int64, error) { return int64(len(raw) % 7), nil }
func (fakeExpecter) countKey(_, _, key string) (int64, error) { return int64(len(key) % 2), nil }

// take draws the first n statements of every client's stream.
func take(t *testing.T, wl *wireWorkload, seed int64, n int) []byte {
	t.Helper()
	newStream, err := wl.streams(fakeExpecter{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for c := 0; c < clients; c++ {
		st := newStream(c)
		for i := 0; i < n; i++ {
			b.Write(st.next().line)
		}
	}
	return b.Bytes()
}

func TestGeneratorDeterminism(t *testing.T) {
	for i := range wireWorkloads {
		wl := &wireWorkloads[i]
		a, b, other := take(t, wl, 7, 500), take(t, wl, 7, 500), take(t, wl, 8, 500)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different streams", wl.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: different seeds gave the same stream", wl.name)
		}
		if bytes.Count(a, []byte("\n")) != clients*500 {
			t.Errorf("%s: a statement spans lines", wl.name)
		}
	}
}

func TestScatterSharesScanStream(t *testing.T) {
	var scan, scatter *wireWorkload
	for i := range wireWorkloads {
		switch wireWorkloads[i].name {
		case "scan-untuned":
			scan = &wireWorkloads[i]
		case "scatter-4":
			scatter = &wireWorkloads[i]
		}
	}
	if !bytes.Equal(take(t, scan, 3, 300), take(t, scatter, 3, 300)) {
		t.Error("scatter-4 must send the identical statement stream as scan-untuned")
	}
}

func TestWriteStreamStaysLevel(t *testing.T) {
	st := newWriteStream(1, 0, 2)
	live := map[string]bool{}
	peak := 0
	for i := 0; i < 3000; i++ {
		o := st.next()
		switch o.kind {
		case opInsert:
			if live[o.id] {
				t.Fatalf("order %s inserted twice", o.id)
			}
			live[o.id] = true
			if o.xml <= 0 || !bytes.Contains(o.line, []byte(o.id)) {
				t.Fatalf("insert %q does not carry its order", o.line)
			}
		case opDelete:
			if !live[o.id] {
				t.Fatalf("delete of %s, which is not live", o.id)
			}
			delete(live, o.id)
		case opUpdate:
			if !bytes.HasPrefix(o.line, []byte("update SECURITY set Yield = ")) {
				t.Fatalf("unexpected update %q", o.line)
			}
		}
		if len(live) > peak {
			peak = len(live)
		}
	}
	if peak != writeLag+1 {
		t.Errorf("live orders peaked at %d, want %d", peak, writeLag+1)
	}
}

func TestPointStreamIsSkewed(t *testing.T) {
	pool, err := newPointPool(fakeExpecter{})
	if err != nil {
		t.Fatal(err)
	}
	st := newPointStream(pool, 5, 0)
	seen := map[string]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		seen[string(st.next().line)]++
	}
	top := 0
	for _, c := range seen {
		if c > top {
			top = c
		}
	}
	// Uniform over 3,500 keys would put ~9 draws on each; Zipf(1.1)
	// puts a few percent of all draws on the hottest key.
	if top < n/100 {
		t.Errorf("hottest key drew %d of %d; the stream is not skewed", top, n)
	}
	if len(seen) < 500 {
		t.Errorf("only %d distinct keys drawn; the tail is missing", len(seen))
	}
}
