package xstats

import (
	"sort"
	"sync"

	"xixa/internal/xmltree"
	"xixa/internal/xpath"
)

// patternTable is what ForPattern remembers about linear patterns. It
// belongs to a retained store, not to a snapshot: ApplyDelta hands the
// same table to the snapshot it returns, so neither a pattern's matched
// paths nor its derived statistics are lost when statistics fold.
//
// Each entry holds the PathIDs its pattern matches — the pattern NFA
// threaded parent→child over the dictionary once and extended only when
// the dictionary grows (the xindex.ensureMatched idiom) — and the
// PatternStats last derived from them. A fold clears the derived
// statistics of exactly the entries matching a path it changed; the
// inverted byPath lists make that proportional to the delta, not to the
// number of patterns the advisor ever asked about.
type patternTable struct {
	dict *xmltree.PathDict

	mu sync.RWMutex
	// seq counts the folds that changed a PathStat. A snapshot carries
	// the value it was built at: derived statistics memoized at seq C
	// and still present were touched by no fold since, so they hold for
	// every snapshot at C or later.
	seq     uint64
	covered int // dictionary prefix every entry has been matched against
	entries map[string]*patternEntry
	byPath  [][]*patternEntry // PathID → entries matching it
	// rendered is PathStat.Path() by PathID, for the paths some entry
	// matches: what List is sorted by, so what pids are sorted by.
	rendered []string
}

type patternEntry struct {
	pattern xpath.Path
	// matcher is nil for a pattern too long for the NFA's state budget;
	// such a pattern is matched against each path's labels directly.
	matcher *xpath.PathMatcher
	states  []xpath.MatchState
	covered int
	// pids are the matched paths in List order (by rendered path). The
	// slice is replaced, never written, once readers can see it.
	pids []xmltree.PathID
	memo [2]patternMemo // string-kind and numeric-kind statistics
}

type patternMemo struct {
	stats PatternStats
	seq   uint64
	ok    bool
}

func newPatternTable(dict *xmltree.PathDict) *patternTable {
	return &patternTable{dict: dict, entries: make(map[string]*patternEntry)}
}

func memoSlot(kind xpath.ValueKind) int {
	if kind == xpath.NumberVal {
		return 1
	}
	return 0
}

// lookup returns the pattern's memoized statistics when they hold for a
// snapshot at seq (the entry returned is nil then), and otherwise its
// entry and matched paths to derive them from.
func (pt *patternTable) lookup(strip string, p xpath.Path, kind xpath.ValueKind, seq uint64) (PatternStats, *patternEntry, []xmltree.PathID) {
	pt.mu.RLock()
	e := pt.entries[strip]
	if e != nil {
		if m := &e.memo[memoSlot(kind)]; m.ok && m.seq <= seq {
			stats := m.stats
			pt.mu.RUnlock()
			return stats, nil, nil
		}
		pids := e.pids
		pt.mu.RUnlock()
		return PatternStats{}, e, pids
	}
	pt.mu.RUnlock()

	pt.mu.Lock()
	defer pt.mu.Unlock()
	if e = pt.entries[strip]; e == nil {
		e = &patternEntry{pattern: p}
		if xpath.CompilablePattern(p) {
			e.matcher = xpath.NewPathMatcher(p)
		}
		pt.entries[strip] = e
		pt.extend(e, pt.dict.Snapshot())
	}
	return PatternStats{}, e, e.pids
}

// remember memoizes statistics a snapshot at seq derived, unless a fold
// has changed a PathStat since: then they are already history.
func (pt *patternTable) remember(e *patternEntry, kind xpath.ValueKind, seq uint64, stats PatternStats) {
	pt.mu.Lock()
	if pt.seq == seq {
		e.memo[memoSlot(kind)] = patternMemo{stats: stats, seq: seq, ok: true}
	}
	pt.mu.Unlock()
}

// advance records a fold that replaced the PathStats of the changed
// paths and returns the sequence number of the snapshot it produced.
func (pt *patternTable) advance(changed []xmltree.PathID) uint64 {
	if len(changed) == 0 {
		pt.mu.RLock()
		defer pt.mu.RUnlock()
		return pt.seq
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	pt.seq++
	// A path can only gain statistics through a fold, so extending here
	// keeps every entry matched against every path any snapshot holds.
	if snap := pt.dict.Snapshot(); len(snap) > pt.covered {
		for _, e := range pt.entries {
			pt.extend(e, snap)
		}
		pt.covered = len(snap)
	}
	for _, pid := range changed {
		if int(pid) >= len(pt.byPath) {
			continue
		}
		for _, e := range pt.byPath[pid] {
			e.memo = [2]patternMemo{}
		}
	}
	return pt.seq
}

// extend matches the entry against the dictionary entries it has not
// seen yet. Called with pt.mu held for writing.
func (pt *patternTable) extend(e *patternEntry, snap []xmltree.PathEntry) {
	from := e.covered
	e.covered = len(snap)
	if e.matcher != nil {
		e.states = e.matcher.ExtendStates(snap, e.states)
	}
	var added []xmltree.PathID
	for i := from; i < len(snap); i++ {
		pid := xmltree.PathID(i)
		if e.matcher != nil {
			if !e.matcher.Matched(e.states[i]) {
				continue
			}
		} else if !xpath.MatchesLabelPath(e.pattern, pt.dict.Labels(pid)) {
			continue
		}
		added = append(added, pid)
	}
	if len(added) == 0 {
		return
	}
	if grow := len(snap) - len(pt.byPath); grow > 0 {
		pt.byPath = append(pt.byPath, make([][]*patternEntry, grow)...)
		pt.rendered = append(pt.rendered, make([]string, grow)...)
	}
	for _, pid := range added {
		pt.byPath[pid] = append(pt.byPath[pid], e)
		if pt.rendered[pid] == "" {
			pt.rendered[pid] = pt.dict.Path(pid)
		}
	}
	pids := append(append(make([]xmltree.PathID, 0, len(e.pids)+len(added)), e.pids...), added...)
	sort.Slice(pids, func(i, j int) bool { return pt.rendered[pids[i]] < pt.rendered[pids[j]] })
	e.pids = pids
	e.memo = [2]patternMemo{}
}
