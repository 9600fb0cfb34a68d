package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/workload"
	"xixa/internal/xindex"
	"xixa/internal/xquery"
)

func TestEvaluatorBaselineAndBenefit(t *testing.T) {
	a := newFixture(t, 300, aq1, aq2)
	e := a.Evaluator()
	base := e.BaselineCost()
	if base <= 0 {
		t.Fatalf("baseline = %v", base)
	}
	if got := e.ConfigBenefit(nil); got != 0 {
		t.Errorf("empty config benefit = %v", got)
	}
	all := a.AllIndexConfig()
	b := e.ConfigBenefit(all)
	if b <= 0 {
		t.Errorf("All-Index benefit = %v, want > 0", b)
	}
	if cost := e.WorkloadCost(all); cost != base-b {
		t.Errorf("WorkloadCost = %v, want %v", cost, base-b)
	}
}

func TestEvaluatorStandaloneCached(t *testing.T) {
	a := newFixture(t, 200, aq1, aq2)
	e := a.Evaluator()
	c := a.Candidates.Basic()[0]
	first := e.StandaloneBenefit(c)
	calls := a.Opt.EvaluateCalls()
	for i := 0; i < 5; i++ {
		if e.StandaloneBenefit(c) != first {
			t.Fatal("standalone benefit unstable")
		}
	}
	if a.Opt.EvaluateCalls() != calls {
		t.Error("standalone benefit not cached")
	}
}

func TestSubConfigDecomposition(t *testing.T) {
	// Q1 only touches Symbol; the Industry query only touches Industry.
	// Their candidates have disjoint affected sets, so a configuration
	// holding both splits into two sub-configurations.
	a := newFixture(t, 200, aq1,
		`for $s in SECURITY('SDOC')/Security where $s/SecInfo/*/Industry = "Ind7" return $s`)
	basic := a.Candidates.Basic()
	if len(basic) != 2 {
		t.Fatalf("basic = %v", candidateStrings(basic))
	}
	groups := splitGroups(basic)
	if len(groups) != 2 {
		t.Errorf("sub-configs = %d, want 2 (disjoint affected sets)", len(groups))
	}

	// Q2's two candidates come from the same statement: one group.
	b := newFixture(t, 200, aq2)
	groups2 := splitGroups(b.Candidates.Basic())
	if len(groups2) != 1 {
		t.Errorf("Q2 sub-configs = %d, want 1 (overlapping affected sets)", len(groups2))
	}
}

func TestSubConfigCacheReducesOptimizerCalls(t *testing.T) {
	// The §VI-C machinery: repeated evaluation of overlapping
	// configurations must hit the cache instead of calling the
	// optimizer. This is the paper's "technique to reduce the number of
	// calls to the optimizer".
	mk := func(opts Options) (int64, int64) {
		a := newFixture(t, 200, aq1, aq2)
		a.Opts = opts
		a.eval = newEvaluator(a)
		a.Opt.ResetCallCounters()
		all := a.AllIndexConfig()
		for i := 0; i < 10; i++ {
			a.eval.ConfigBenefit(all)
		}
		return a.Opt.EvaluateCalls(), a.eval.CacheHits.Load()
	}
	cachedCalls, hits := mk(DefaultOptions())
	uncachedCalls, _ := mk(Options{Beta: 0.10, DisableSubConfigCache: true})
	if cachedCalls >= uncachedCalls {
		t.Errorf("cache did not reduce calls: %d cached vs %d uncached", cachedCalls, uncachedCalls)
	}
	if hits == 0 {
		t.Error("no cache hits recorded")
	}
}

func TestAffectedSetsReduceOptimizerCalls(t *testing.T) {
	// Evaluating a single-statement candidate must only re-optimize that
	// statement, not the whole workload.
	stmts := []string{
		aq1, aq2,
		`for $s in SECURITY('SDOC')/Security where $s/SecInfo/*/Industry = "Ind7" return $s`,
		`SECURITY('SDOC')/Security[Yield<2.5]`,
	}
	with := newFixture(t, 200, stmts...)
	with.Opt.ResetCallCounters()
	with.eval.ConfigBenefit([]*Candidate{with.Candidates.Basic()[0]})
	withCalls := with.Opt.EvaluateCalls()

	without := newFixture(t, 200, stmts...)
	without.Opts.DisableAffectedSets = true
	without.Opt.ResetCallCounters()
	without.eval.ConfigBenefit([]*Candidate{without.Candidates.Basic()[0]})
	withoutCalls := without.Opt.EvaluateCalls()

	if withCalls >= withoutCalls {
		t.Errorf("affected sets did not reduce calls: %d vs %d", withCalls, withoutCalls)
	}
	if withCalls != 1 {
		t.Errorf("single-statement candidate evaluation made %d calls, want 1", withCalls)
	}
}

func TestBenefitConsistencyAcrossDecomposition(t *testing.T) {
	// Decomposed evaluation must equal whole-workload evaluation.
	stmts := []string{
		aq1, aq2,
		`for $s in SECURITY('SDOC')/Security where $s/SecInfo/*/Industry = "Ind7" return $s`,
	}
	a := newFixture(t, 200, stmts...)
	cfg := a.AllIndexConfig()
	decomposed := a.eval.ConfigBenefit(cfg)

	b := newFixture(t, 200, stmts...)
	b.Opts.DisableAffectedSets = true
	naive := b.eval.ConfigBenefit(b.AllIndexConfig())
	diff := decomposed - naive
	if diff < -1e-6 || diff > 1e-6 {
		t.Errorf("decomposed benefit %v != naive %v", decomposed, naive)
	}
}

func TestFrequencyScalesBenefit(t *testing.T) {
	a1 := newFixture(t, 200, aq1)
	w := workload.New()
	w.Add(xquery.MustParse(aq1), 10)
	a10, err := New(a1.DB, a1.Opt, w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b1 := a1.eval.ConfigBenefit(a1.AllIndexConfig())
	b10 := a10.eval.ConfigBenefit(a10.AllIndexConfig())
	ratio := b10 / b1
	if ratio < 9.99 || ratio > 10.01 {
		t.Errorf("freq-10 benefit ratio = %v, want 10", ratio)
	}
}

// splitGroups returns the evaluator's split of cfg as one slice per
// group, in group order.
func splitGroups(cfg []*Candidate) [][]*Candidate {
	var s subConfigs
	s.split(&keptSplit{}, cfg)
	out := make([][]*Candidate, s.len())
	for g := range out {
		out[g] = append([]*Candidate(nil), s.group(g)...)
	}
	return out
}

// splitSubConfigs is the map-based split the evaluator used before the
// pooled one: union-find over every pair, then a map from root to
// members, the roots sorted ascending and each group sorted by ID. It
// is the oracle of TestSplitSubConfigsMatchesReference.
func splitSubConfigs(cfg []*Candidate) [][]*Candidate {
	n := len(cfg)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	union := func(i, j int) { parent[find(i)] = find(j) }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if cfg[i].Affected.Intersects(cfg[j].Affected) {
				union(i, j)
			}
		}
	}
	groups := make(map[int][]*Candidate)
	for i, c := range cfg {
		r := find(i)
		groups[r] = append(groups[r], c)
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([][]*Candidate, 0, len(groups))
	for _, k := range keys {
		g := groups[k]
		sort.Slice(g, func(i, j int) bool { return g[i].ID < g[j].ID })
		out = append(out, g)
	}
	return out
}

// groupIDs lists each group's candidate IDs, in group order.
func groupIDs(groups [][]*Candidate) [][]int {
	out := make([][]int, len(groups))
	for g, group := range groups {
		out[g] = make([]int, len(group))
		for i, c := range group {
			out[g][i] = c.ID
		}
	}
	return out
}

// candidatesWith makes candidate i with affected set sets[i], over
// stmts statements.
func candidatesWith(stmts int, sets ...[]int) []*Candidate {
	all := make([]*Candidate, len(sets))
	for i, set := range sets {
		all[i] = &Candidate{ID: i, Affected: NewBitSet(stmts)}
		for _, ord := range set {
			all[i].Affected.Set(ord)
		}
	}
	return all
}

// The split decides which statements each optimizer call covers and,
// through the group order, the order benefits are summed in: the groups
// and their order must be the map-based split's exactly.
func TestSplitSubConfigsMatchesReference(t *testing.T) {
	check := func(name string, cfg []*Candidate) [][]int {
		t.Helper()
		got := groupIDs(splitGroups(cfg))
		if want := groupIDs(splitSubConfigs(cfg)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: groups %v, reference %v", name, got, want)
		}
		return got
	}
	const stmts = 150

	// The unions (0,1), (0,5), (1,3) leave {0,1,3,5} under root 3, which
	// is neither its smallest nor its largest member.
	chained := candidatesWith(stmts, []int{10, 11}, []int{10, 12}, []int{20}, []int{12}, []int{30}, []int{11})
	if got, want := check("chained", chained), [][]int{{2}, {0, 1, 3, 5}, {4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("chained: groups %v, want %v", got, want)
	}
	disjoint := candidatesWith(stmts, []int{1}, []int{2}, []int{3}, []int{4})
	overlapping := candidatesWith(stmts, []int{0, 1}, []int{0, 2}, []int{0}, []int{0, 99})
	check("n=0", nil)
	check("n=1", disjoint[2:3])
	check("n=1, empty affected set", candidatesWith(stmts, nil))
	check("all disjoint", disjoint)
	check("all overlapping", []*Candidate{overlapping[3], overlapping[1], overlapping[0], overlapping[2]})

	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		m := 1 + r.Intn(40)
		density := []int{1, 3, 10}[r.Intn(3)] // affected statements per candidate
		sets := make([][]int, m)
		for i := range sets {
			for k := r.Intn(density + 1); k > 0; k-- {
				sets[i] = append(sets[i], r.Intn(stmts))
			}
		}
		all := candidatesWith(stmts, sets...)
		// A random subset in random order; a search may also pass the
		// same candidate twice.
		var cfg []*Candidate
		for _, i := range r.Perm(m)[:r.Intn(m+1)] {
			cfg = append(cfg, all[i])
			if r.Intn(10) == 0 {
				cfg = append(cfg, all[i])
			}
		}
		check("random trial "+strconv.Itoa(trial), cfg)
	}
}

// adviseWorkload is the advise workload of TestAdviseRoundMatchesGolden:
// TPoX scale 1, its 11 queries, 200 synthetic queries (seed 130) and
// the 4 update statements, shuffled with seed 1.
func adviseWorkload(t testing.TB) (*storage.Database, *workload.Workload) {
	t.Helper()
	db, err := tpox.NewDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	stmts := append([]string(nil), tpox.Queries()...)
	stmts = append(stmts, tpox.SyntheticQueries(db, 200, 130)...)
	stmts = append(stmts, tpox.UpdateStatements()...)
	rand.New(rand.NewSource(1)).Shuffle(len(stmts), func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })
	w, err := workload.ParseStatements(stmts)
	if err != nil {
		t.Fatal(err)
	}
	return db, w
}

// Re-evaluating a configuration whose groups are all cached is the
// greedy search's common case: it must cost a few allocations, however
// many groups the configuration splits into.
func TestCachedConfigBenefitAllocs(t *testing.T) {
	db, w := adviseWorkload(t)
	a, err := New(db, optimizer.New(db, optimizer.CollectStats(db)), w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := a.Recommend(AlgoHeuristic, a.AllIndexSize()/2)
	if err != nil {
		t.Fatal(err)
	}
	// Recommend evaluated rec.Config, so every group is cached.
	cfg := rec.Config
	groups := len(splitGroups(cfg))
	if groups < 10 {
		t.Fatalf("heuristic configuration splits into %d groups; want a configuration with many", groups)
	}
	hits := a.eval.CacheHits.Load()
	allocs := testing.AllocsPerRun(100, func() { a.eval.ConfigBenefit(cfg) })
	// AllocsPerRun makes one warm-up call besides the 100 it measures.
	if got, want := a.eval.CacheHits.Load()-hits, int64(101*groups); got != want {
		t.Errorf("%d cache hits over 101 evaluations of %d groups, want %d", got, groups, want)
	}
	if allocs > 4 {
		t.Errorf("cached ConfigBenefit of %d indexes in %d groups made %v allocations, want <= 4", len(cfg), groups, allocs)
	}
}

// The greedy heuristic scores each trial by extending its
// configuration's kept split instead of splitting the whole trial: the
// extension must give ConfigBenefit's bits and cache hits exactly.
// Two advisors on one optimizer, with separate caches, see the same
// evaluations in the same order: one builds each configuration with
// keep and scores extensions, the other scores every prefix and trial
// with ConfigBenefit. Extras may repeat a configured candidate or each
// other, and one added candidate has an empty affected set.
func TestExtendedBenefitMatchesConfigBenefit(t *testing.T) {
	db, w := adviseWorkload(t)
	opt := optimizer.New(db, optimizer.CollectStats(db))
	mk := func() *Advisor {
		a, err := New(db, opt, w, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		// A candidate no statement can use still costs maintenance.
		all := a.Candidates.All
		all = append(all, &Candidate{ID: len(all), Def: all[0].Def, SizeBytes: all[0].SizeBytes, Affected: NewBitSet(0)})
		a.Candidates.All = all
		a.eval = newEvaluator(a)
		return a
	}
	ext, ref := mk(), mk()
	n := len(ext.Candidates.All)
	r := rand.New(rand.NewSource(1))
	pick := func(a *Advisor, ids []int) []*Candidate {
		out := make([]*Candidate, len(ids))
		for i, id := range ids {
			out[i] = a.Candidates.All[id]
		}
		return out
	}
	pairs := 0
	for cfgs := 0; pairs < 8000; cfgs++ {
		ids := r.Perm(n)[:r.Intn(30)]
		var k keptSplit
		for i, id := range ids {
			hits := ext.eval.CacheHits.Load()
			got := ext.eval.extendedBenefit(&k, pick(ext, ids[i:i+1]))
			ext.eval.keep(&k, ext.Candidates.All[id])
			hits = ext.eval.CacheHits.Load() - hits
			refHits := ref.eval.CacheHits.Load()
			want := ref.eval.ConfigBenefit(pick(ref, ids[:i+1]))
			refHits = ref.eval.CacheHits.Load() - refHits
			if math.Float64bits(got) != math.Float64bits(want) || hits != refHits {
				t.Fatalf("configuration %d, prefix %v: extension %v (%d hits), ConfigBenefit %v (%d hits)", cfgs, ids[:i+1], got, hits, want, refHits)
			}
		}
		if got, want := keptGroupIDs(&k), groupIDs(splitGroups(k.cfg)); !reflect.DeepEqual(got, want) {
			t.Fatalf("configuration %d: kept groups %v, split %v", cfgs, got, want)
		}
		for trial := 0; trial < 20; trial++ {
			extra := make([]int, 1+r.Intn(4))
			for i := range extra {
				switch {
				case len(ids) > 0 && r.Intn(8) == 0:
					extra[i] = ids[r.Intn(len(ids))]
				case i > 0 && r.Intn(8) == 0:
					extra[i] = extra[r.Intn(i)]
				default:
					extra[i] = r.Intn(n)
				}
			}
			hits := ext.eval.CacheHits.Load()
			got := ext.eval.extendedBenefit(&k, pick(ext, extra))
			hits = ext.eval.CacheHits.Load() - hits
			refHits := ref.eval.CacheHits.Load()
			want := ref.eval.ConfigBenefit(pick(ref, append(append([]int(nil), ids...), extra...)))
			refHits = ref.eval.CacheHits.Load() - refHits
			if math.Float64bits(got) != math.Float64bits(want) || hits != refHits {
				t.Fatalf("configuration %v + %v: extension %v (%d hits), ConfigBenefit %v (%d hits)", ids, extra, got, hits, want, refHits)
			}
			pairs++
		}
	}
	if ext.Opt.EvaluateCalls() == 0 || ext.eval.CacheHits.Load() == 0 {
		t.Fatal("the pairs made no optimizer calls or no cache hits")
	}
}

// keptGroupIDs lists a kept split's groups like groupIDs does: the
// member IDs of each group ascending, groups in order.
func keptGroupIDs(k *keptSplit) [][]int {
	out := make([][]int, len(k.groups))
	for p, g := range k.groupOf {
		out[g] = append(out[g], k.cfg[p].ID)
	}
	for _, ids := range out {
		sort.Ints(ids)
	}
	return out
}

// The greedy heuristic's common case: extending a kept split by one
// candidate whose groups are all cached allocates nothing.
func TestCachedExtensionAllocs(t *testing.T) {
	db, w := adviseWorkload(t)
	a, err := New(db, optimizer.New(db, optimizer.CollectStats(db)), w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := a.Recommend(AlgoHeuristic, a.AllIndexSize()/2)
	if err != nil {
		t.Fatal(err)
	}
	var k keptSplit
	for _, c := range rec.Config {
		a.eval.keep(&k, c)
	}
	if len(k.groups) < 10 {
		t.Fatalf("heuristic configuration splits into %d groups; want a configuration with many", len(k.groups))
	}
	// An extra that merges kept groups, so the trial has a component
	// besides the reused groups.
	inConfig := make(map[int]bool)
	for _, c := range rec.Config {
		inConfig[c.ID] = true
	}
	var extra []*Candidate
	for _, c := range a.Candidates.All {
		if !inConfig[c.ID] {
			var s subConfigs
			s.split(&k, []*Candidate{c})
			if len(s.order) < len(k.groups) {
				extra = []*Candidate{c}
				break
			}
		}
	}
	if extra == nil {
		t.Fatal("no candidate outside the configuration merges two of its groups")
	}
	groups := len(splitGroups(append(append([]*Candidate(nil), k.cfg...), extra...)))
	a.eval.extendedBenefit(&k, extra) // caches the merged component
	hits := a.eval.CacheHits.Load()
	allocs := testing.AllocsPerRun(100, func() { a.eval.extendedBenefit(&k, extra) })
	// AllocsPerRun makes one warm-up call besides the 100 it measures.
	if got, want := a.eval.CacheHits.Load()-hits, int64(101*groups); got != want {
		t.Errorf("%d cache hits over 101 cached extensions into %d groups, want %d", got, groups, want)
	}
	if allocs != 0 {
		t.Errorf("cached extension of %d indexes in %d groups made %v allocations, want 0", len(k.cfg), groups, allocs)
	}
}

// The evaluator costs a trial with Optimizer.EvaluateCost: over the
// advise workload, under every candidate alone and under the All-Index
// configuration, it must return EvaluateIndexes' EstCost bit for bit
// and count as exactly one Evaluate Indexes call.
func TestEvaluateCostMatchesEvaluateIndexes(t *testing.T) {
	db, w := adviseWorkload(t)
	opt := optimizer.New(db, optimizer.CollectStats(db))
	a, err := New(db, opt, w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	configs := [][]xindex.Definition{nil, defsOf(a.AllIndexConfig())}
	for _, c := range a.Candidates.All {
		configs = append(configs, []xindex.Definition{c.Def})
	}
	for _, cfg := range configs {
		for ord, item := range w.Items {
			plan, err := opt.EvaluateIndexes(item.Stmt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			calls := opt.EvaluateCalls()
			cost, err := opt.EvaluateCost(item.Stmt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := opt.EvaluateCalls() - calls; got != 1 {
				t.Fatalf("EvaluateCost counted %d Evaluate Indexes calls, want 1", got)
			}
			if math.Float64bits(cost) != math.Float64bits(plan.EstCost) {
				t.Fatalf("statement %d under %d indexes: EvaluateCost %v, EvaluateIndexes %v", ord, len(cfg), cost, plan.EstCost)
			}
		}
	}
}

// Once its probe evaluations are memoized, EvaluateCost allocates
// nothing, under one index or under all of them.
func TestEvaluateCostAllocs(t *testing.T) {
	db, w := adviseWorkload(t)
	opt := optimizer.New(db, optimizer.CollectStats(db))
	a, err := New(db, opt, w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	all := defsOf(a.AllIndexConfig())
	for _, cfg := range [][]xindex.Definition{all[:1], all} {
		allocs := testing.AllocsPerRun(20, func() {
			for _, item := range w.Items {
				if _, err := opt.EvaluateCost(item.Stmt, cfg); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("memo-warm EvaluateCost of %d statements under %d indexes made %v allocations, want 0", w.Len(), len(cfg), allocs)
		}
	}
}

// A trial's missed components are costed in the split scratch: with the
// sub-configuration cache off every component misses, and once the
// scratch has grown an evaluation allocates nothing.
func TestMissedComponentAllocs(t *testing.T) {
	db, w := adviseWorkload(t)
	opts := DefaultOptions()
	opts.DisableSubConfigCache = true
	a, err := New(db, optimizer.New(db, optimizer.CollectStats(db)), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.AllIndexConfig()
	groups := len(splitGroups(cfg))
	if groups < 2 {
		t.Fatalf("the All-Index configuration splits into %d groups; want several", groups)
	}
	calls := a.Opt.EvaluateCalls()
	allocs := testing.AllocsPerRun(20, func() { a.eval.ConfigBenefit(cfg) })
	if a.Opt.EvaluateCalls() == calls {
		t.Fatal("the evaluations made no optimizer calls")
	}
	if allocs != 0 {
		t.Errorf("evaluating %d missed components made %v allocations, want 0", groups, allocs)
	}
}

func defsOf(cfg []*Candidate) []xindex.Definition {
	defs := make([]xindex.Definition, len(cfg))
	for i, c := range cfg {
		defs[i] = c.Def
	}
	return defs
}

// An advisor's set-up on an optimizer that earlier advisors warmed (a
// serving tuner's second round, or the next algorithm of an advise
// round) allocates for the candidates, their affected sets, site keys
// and DAG, and the coverage matrix — not per pattern lookup, nor per
// (candidate, insert) maintenance count, which the compiled insert
// memoizes. Measured at 1,757 allocations on the advise workload (1,792
// under -race).
func TestNewAllocs(t *testing.T) {
	db, w := adviseWorkload(t)
	opt := optimizer.New(db, optimizer.CollectStats(db))
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := New(db, opt, w, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1850 {
		t.Errorf("New on a warm optimizer made %v allocations, want <= 1850", allocs)
	}
}
