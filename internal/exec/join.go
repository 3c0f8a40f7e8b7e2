package exec

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/colstore"
	"repro/internal/energy"
)

// The one equi-join.
//
// Every join in the system is the same pipeline, whatever its size, key
// type, or consumer:
//
//	key domain  both key columns are int64 over one equality domain:
//	            BIGINT is itself and VARCHAR its codes — on every storage
//	            state, since a relation's string column is
//	            always codes plus a dictionary.  When the two sides' codes
//	            index different dictionaries, the build codes are
//	            translated through the probe dictionary ([translate]).
//	build       buildTables (partjoin.go): one open-addressing table per
//	            radix partition — one table and no scatter pass while the
//	            build side fits the per-partition cache target.
//	probe       the ONE kernel, probeMorsel, over the morsel grid of a
//	            probe source: a bound scan (the fused feed — selected
//	            keys resolve span by span straight from the compressed
//	            segments, a dictionary code or an RLE run looked up once,
//	            and the probe relation is never built) or a materialized
//	            relation's key column.  The lookups are priced once per
//	            pass, at the pass's counts (ProbeWork).
//	sink        matches become (probe row, build row) pairs, concatenated in
//	            morsel order and gathered into the output relation — or
//	            fold straight into a partial aggregate (fused.go's
//	            probeFold), in chunks of at most MorselRows matches, so no
//	            pair list is materialized at all.
//
// A tiny input is nothing special: RadixBits(n) == 0 gives one table, one
// morsel runs on one worker.  There is no serial twin, no row threshold
// and no run-time change of mind, so EXPLAIN, the planner's estimate and
// the executed phases describe the same thing by construction.
//
// Determinism contract: the morsel grid, the partition count, the
// per-partition table layout, and every charged counter are functions of
// the inputs alone — never of the worker count or of scheduling order —
// so relations AND energy counters are byte-identical at every DOP
// (TestJoinDOPInvariant).

// Join is the inner equi-join.  Left is the probe side, Right the build
// side (the optimizer sizes the build side from catalog statistics).
type Join struct {
	Left, Right       Node
	LeftKey, RightKey string
}

// Label implements Node.
func (j *Join) Label() string {
	return fmt.Sprintf("Join(%s = %s)", j.LeftKey, j.RightKey)
}

// Kids implements Node.
func (j *Join) Kids() []Node { return []Node{j.Left, j.Right} }

// ErrResultTooLarge is returned by a join asked to materialize more than
// maxJoinPairs matches: a low-cardinality key turns an equi-join into a
// near cross product whose pair lists would otherwise grow until the
// process is killed, which no panic isolation can catch.  The serving
// layer reports a result over its response row cap with the same error.
var ErrResultTooLarge = errors.New("exec: result too large")

// maxJoinPairs caps the pairs one join may materialize — 16× the largest
// pair list any benchmark or experiment statement produces.  The fold
// sink is exempt: it folds each MorselRows matches as they come, so its
// memory does not grow with them.  (A variable only so the cap test can
// lower it.)
var maxJoinPairs = 1 << 24

// Run implements Node.
func (j *Join) Run(ctx *Ctx) (*Relation, error) {
	src, err := j.probeSource(ctx)
	if err != nil {
		return nil, err
	}
	jr, err := j.build(ctx, src)
	if err != nil {
		return nil, err
	}
	return jr.pairs(ctx)
}

// probeSource resolves the probe side: a fusable Scan feeds the kernel
// straight from its table (fused.go's scanProbe) and is never run;
// anything else is run to a relation first.
func (j *Join) probeSource(ctx *Ctx) (probeSource, error) {
	if sp := j.scanProbe(); sp != nil {
		return sp, nil
	}
	left, err := j.Left.Run(ctx)
	if err != nil {
		return nil, err
	}
	return relationProbe(left, j.LeftKey)
}

// build runs the build side and hashes it for src's probe keys.
func (j *Join) build(ctx *Ctx, src probeSource) (*joinRun, error) {
	right, err := j.Right.Run(ctx)
	if err != nil {
		return nil, err
	}
	return startJoin(ctx, j.Label(), src, right, j.RightKey)
}

// probeSource is where a join's probe keys come from.  The kernel crosses
// it once per morsel, never per row.
type probeSource interface {
	// keyDomain reports the probe key's type and, for a string key, the
	// dictionary its int64 keys are codes of.
	keyDomain() (typ colstore.Type, dict []string)
	// rows is the probe side's row count at snap — the morsel grid.
	rows(snap int64) int
	// fused reports that the keys stream from the base table rather than a
	// materialized relation: the probe pass is traced as [fused probe], and
	// the kernel carries each match's key so gather need not re-read it.
	fused() bool
	// window filters rows [lo, hi) and resolves the selected rows' keys
	// (joinRun.lookup, counted in c) into sc.hits, one per selected row,
	// in the room probeMorsel reserved;
	// folding picks the fold sink's density rule, the verdict the fold's
	// own probe-side windows then follow.
	window(snap int64, lo, hi int, sc *morselScratch, folding bool, jr *joinRun, c *ProbeCounts) (probeWindow, energy.Counters)
	// gather materializes the probe side of the output at the matched
	// rows; keys are the matches' probe keys, carried for a fused source.
	gather(keys []int64, rows []int32) (*Relation, energy.Counters)
}

// relProbe probes with a materialized relation's key column: every row
// is selected, and the kernel re-streams the 8-byte keys.
type relProbe struct {
	rel *Relation
	key *Col // values or codes
}

// relationProbe wraps a materialized probe side.
func relationProbe(rel *Relation, key string) (probeSource, error) {
	lk, err := rel.Col(key)
	if err != nil {
		return nil, err
	}
	return &relProbe{rel: rel, key: lk}, nil
}

func (rp *relProbe) keyDomain() (colstore.Type, []string) {
	return rp.key.Type, rp.key.Dict
}
func (rp *relProbe) rows(int64) int { return rp.rel.N }
func (rp *relProbe) fused() bool    { return false }

func (rp *relProbe) window(_ int64, lo, hi int, sc *morselScratch, _ bool, jr *joinRun, c *ProbeCounts) (probeWindow, energy.Counters) {
	sc.hits = sc.hits[:hi-lo]
	for i, k := range rp.key.I[lo:hi] {
		sc.hits[i] = jr.lookup(sc, k, c)
	}
	return probeWindow{n: hi - lo, dense: true}, energy.Counters{BytesReadDRAM: uint64(hi-lo) * 8} // the key stream
}

// gather reads every output value out of the probe relation.
func (rp *relProbe) gather(_ []int64, rows []int32) (*Relation, energy.Counters) {
	out := rp.rel.Gather(rows)
	return out, energy.Counters{BytesReadDRAM: out.Bytes()}
}

// probeWindow is one morsel's selection: the selected window-local rows,
// ascending (nil = every row), their count, and whether the window was
// bulk-decoded.
type probeWindow struct {
	sel   []int32
	n     int
	dense bool
}

// ProbeCounts is what one probe pass did: the arguments its price,
// ProbeWork, is evaluated at — by the kernel with the actual counts, by
// the planner with estimated ones.  Keys resolve span by span: a
// dictionary span looks up each distinct selected code once, an RLE span
// each run of equal selected keys once, every other span (the unsealed
// tail, and a materialized relation's key column) each row.
type ProbeCounts struct {
	Rows    int // selected probe rows
	Keys    int // hash lookups
	Steps   int // the lookups' linear-probe steps
	Matches int // (probe row, build row) matches
	// Touches counts build-table entries read: one per match, but a key
	// with exactly one build row reads it once, at its lookup, however
	// many probe rows share the key (a collapsed key).
	Touches int
}

// Add accumulates o into c.
func (c *ProbeCounts) Add(o ProbeCounts) {
	c.Rows += o.Rows
	c.Keys += o.Keys
	c.Steps += o.Steps
	c.Matches += o.Matches
	c.Touches += o.Touches
}

// ProbeWork prices a probe pass: a lookup is a cache-resident hash probe
// (half a miss, 8 instructions plus one per linear-probe step); a row
// whose key its span already resolved reads the span's resident memo
// instead (2 instructions); a build entry read is a quarter miss, and
// every match 4 instructions.  The kernel bills its lookup phase with it
// and the planner prices its estimate with it — one formula.
func ProbeWork(c ProbeCounts) energy.Counters {
	return energy.Counters{
		TuplesIn:     uint64(c.Rows),
		TuplesOut:    uint64(c.Matches),
		CacheMisses:  uint64(c.Keys)/2 + uint64(c.Touches)/4,
		Instructions: uint64(c.Keys)*8 + uint64(c.Rows-c.Keys)*2 + uint64(c.Steps) + uint64(c.Matches)*4,
	}
}

// joinRun is one join in flight: its probe source, its build relation
// and the tables hashed over it.
type joinRun struct {
	label    string
	src      probeSource
	right    *Relation
	rightKey string
	tables   []*joinTable
	shift    uint
}

// startJoin establishes the key domain and builds the probe tables — the
// first half of every join.
func startJoin(ctx *Ctx, label string, src probeSource, right *Relation, rightKey string) (*joinRun, error) {
	rk, err := right.Col(rightKey)
	if err != nil {
		return nil, err
	}
	typ, dict := src.keyDomain()
	if typ != rk.Type {
		return nil, fmt.Errorf("exec: join key type mismatch %v vs %v", typ, rk.Type)
	}
	rkeys, translated := rk.I, false
	switch typ {
	case colstore.Int64:
	case colstore.String:
		if !sameDict(dict, rk.Dict) {
			var tw energy.Counters
			rkeys, tw = translateBuildCodes(dict, rk)
			translated = true
			ctx.Charge(label+" [translate]", 0, tw)
		}
	default:
		return nil, fmt.Errorf("exec: cannot join on %v keys", typ)
	}
	tables, shift, err := buildTables(ctx, label, rkeys, translated)
	if err != nil {
		return nil, err
	}
	return &joinRun{label: label, src: src, right: right, rightKey: rightKey, tables: tables, shift: shift}, nil
}

// noCode marks a build-side key with no equivalent in the probe-side
// code domain: no probe row can ever equal it.
const noCode = int64(-1) << 62

// translateBuildCodes rewrites the build key column's codes into the
// probe side's code domain (probeDict), marking untranslatable values
// with noCode — once per distinct build value, so equal strings compare
// as equal 8-byte codes and the join never touches string bytes row-wise.
func translateBuildCodes(probeDict []string, rk *Col) (rkeys []int64, w energy.Counters) {
	probe := make(map[string]int64, len(probeDict))
	var dictBytes uint64
	for code, s := range probeDict {
		probe[s] = int64(code)
		dictBytes += uint64(len(s))
	}
	trans := make([]int64, len(rk.Dict))
	for code, s := range rk.Dict {
		dictBytes += uint64(len(s))
		if pc, ok := probe[s]; ok {
			trans[code] = pc
		} else {
			trans[code] = noCode
		}
	}
	rkeys = make([]int64, len(rk.I))
	for i, c := range rk.I {
		rkeys[i] = trans[c]
	}
	w = energy.Counters{
		BytesReadDRAM: dictBytes,
		CacheMisses:   uint64(len(probeDict)+len(rk.Dict)) / 2,
		Instructions:  uint64(len(probeDict)+len(rk.Dict))*8 + uint64(len(rk.I)),
	}
	return rkeys, w
}

// sameDict reports whether two dictionaries are the same backing slice.
func sameDict(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// probeMorsel is the one probe kernel: it takes rows [lo, hi)'s selected
// keys from the probe source, resolved span by span (window), and emits
// their matches in probe-row order.  Matches go to one of two sinks: with
// fold nil they are emitted as row pairs (the join feeds an arbitrary
// consumer); otherwise each match folds straight into fold's partial
// aggregate and no pair is ever written.  The lookup phase is priced by
// the caller, once per pass, from the returned counts.
func (jr *joinRun) probeMorsel(snap int64, lo, hi int, fold *probeFold) (pairChunk, ProbeCounts, energy.Counters) {
	sc := scratchPool.Get().(*morselScratch)
	defer scratchPool.Put(sc)
	sc.hits, sc.res = room(sc.hits, hi-lo), sc.res[:0]
	var c ProbeCounts
	pw, w := jr.src.window(snap, lo, hi, sc, fold != nil, jr, &c)
	if c.Rows = pw.n; pw.n == 0 {
		return pairChunk{}, c, w
	}
	if fold != nil {
		w.Add(fold.bind(sc, pw.sel, lo, hi, pw.dense))
	}

	var pc pairChunk
	carry, res := jr.src.fused(), sc.res
	matches, touches := 0, 0
	for x, h := range sc.hits {
		if h < 0 {
			continue
		}
		if fold == nil && matches > maxJoinPairs {
			break // this morsel alone is over the cap: the driver reports it
		}
		i := x
		if pw.sel != nil {
			i = int(pw.sel[x])
		}
		// A collapsed key emits its one row without touching the table;
		// any other key walks its chain.
		hit := &res[h]
		r, e := hit.r, int32(-1)
		if !hit.one {
			e = hit.e
		}
		for more := true; more; more = e != -1 {
			if e != -1 {
				r, e = hit.t.rows[e], hit.t.next[e]
				touches++
			}
			matches++
			if fold != nil {
				fold.hit(hit, i, r)
			} else {
				pc.l, pc.r = append(pc.l, int32(lo+i)), append(pc.r, r)
				if carry {
					pc.k = append(pc.k, hit.k)
				}
			}
		}
	}
	c.Matches, c.Touches = matches, c.Touches+touches
	if fold != nil {
		fold.flush()
		w.TuplesOut += uint64(fold.t.groups())
	} else {
		w.BytesWrittenDRAM += uint64(matches) * 8 // the pair list
	}
	return pc, c, w
}

// probeHit is one resolved probe key of a morsel: its table and chain
// head.  A key with one build row (one, collapsed) read that row r at its
// lookup, and memoizes its fold group in g (plus one; 0 unresolved) when
// the group does not depend on the probe row.
type probeHit struct {
	t       *joinTable
	k       int64
	e, r, g int32 // chain head; a collapsed key's build row; its group + 1
	one     bool
}

// iota32 is the window-local row list of a fully selected window.
var iota32 = func() []int32 {
	s := make([]int32, MorselRows)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// lookup resolves key k in its partition's table, counting the lookup,
// its steps and — for a one-row key — the build entry it reads, and
// returns its hit index in sc.res, or -1 when k matches nothing.
func (jr *joinRun) lookup(sc *morselScratch, k int64, c *ProbeCounts) int32 {
	c.Keys++
	h := mix64(uint64(k))
	t := jr.tables[h>>jr.shift]
	if t == nil {
		c.Steps++
		return -1
	}
	e, st := t.lookup(k, h)
	c.Steps += st
	if e == -1 {
		return -1
	}
	hit := probeHit{t: t, k: k, e: e, one: t.next[e] == -1}
	if hit.one {
		hit.r = t.rows[e]
		c.Touches++
	}
	sc.res = append(sc.res, hit)
	return int32(len(sc.res) - 1)
}

// probeOut is one probe morsel's output: its matches as pairs, or the
// partial aggregate they folded into.
type probeOut struct {
	pairChunk
	agg *groupTable
	ProbeCounts
}

// pairBudget admits the pair sink's morsel outputs in morsel order until
// their running total passes maxJoinPairs.  Ordered admission makes the
// stop — which morsels were charged before the join gave up — a function
// of the data alone, so even a refused join meters identically at every
// DOP.  Every claimed morsel is finished by its worker and claims ascend,
// so the morsel a worker waits for is always in flight.
type pairBudget struct {
	mu    sync.Mutex
	turn  sync.Cond // on mu: next advanced
	next  int       // the morsel admitted next
	total int
}

// admit books morsel m's pairs, reporting false once the total had
// already passed the cap: that morsel is dropped unbilled.
func (b *pairBudget) admit(m, pairs int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.next != m {
		b.turn.Wait()
	}
	b.next++
	b.turn.Broadcast()
	if b.total > maxJoinPairs {
		return false
	}
	b.total += pairs
	return true
}

// probe runs the probe pass — one probeMorsel per morsel of the source —
// into the pair sink (fold nil) or, per morsel, a copy of fold over a
// fresh partial table, and returns the morsel outputs in morsel order,
// the pass's counts and its counters.  The lookup phase is charged here,
// once, at the pass's counts (ProbeWork).
func (jr *joinRun) probe(ctx *Ctx, fold *probeFold) ([]probeOut, ProbeCounts, energy.Counters, error) {
	snap := ctx.SnapTS
	var budget *pairBudget
	if fold == nil {
		budget = &pairBudget{}
		budget.turn.L = &budget.mu
	}
	outs, qw := runMorsels(ctx, jr.src.rows(snap), func(m, lo, hi int) (probeOut, energy.Counters) {
		if fold != nil {
			f := *fold
			f.t = f.pf.newTable(f.dicts)
			_, c, w := jr.probeMorsel(snap, lo, hi, &f)
			return probeOut{agg: f.t, ProbeCounts: c}, w
		}
		pc, c, w := jr.probeMorsel(snap, lo, hi, nil)
		if !budget.admit(m, len(pc.l)) {
			return probeOut{}, energy.Counters{}
		}
		return probeOut{pairChunk: pc, ProbeCounts: c}, w
	})
	var c ProbeCounts
	switch {
	case ctx.Canceled():
		return nil, c, qw, ErrCanceled
	case budget != nil && budget.total > maxJoinPairs:
		return nil, c, qw, ErrResultTooLarge
	}
	for _, o := range outs {
		c.Add(o.ProbeCounts)
	}
	ctx.Charge(jr.label+" [lookup]", c.Matches, ProbeWork(c))
	ctx.OpReports[len(ctx.OpReports)-1].Probe = &c
	return outs, c, qw, nil
}

// pairs is the pair sink — the second half of a join that feeds an
// arbitrary consumer: probe, concatenate the pair chunks in morsel order
// (probe-row-major, build rows ascending within duplicates), gather.
func (jr *joinRun) pairs(ctx *Ctx) (*Relation, error) {
	outs, c, qw, err := jr.probe(ctx, nil)
	if err != nil {
		return nil, err
	}
	matches := c.Matches
	lRows := make([]int32, 0, matches)
	rRows := make([]int32, 0, matches)
	var mKeys []int64
	phase := " [probe]"
	if jr.src.fused() {
		phase, mKeys = " [fused probe]", make([]int64, 0, matches)
	}
	ctx.Trace(jr.label+phase, matches, qw)
	for _, o := range outs {
		lRows = append(lRows, o.l...)
		rRows = append(rRows, o.r...)
		mKeys = append(mKeys, o.k...)
	}

	// Gather.  Every output value is read from its input and written to
	// the result, 8 bytes each — a string column moves its codes, its
	// dictionary riding along; the probe source prices its own reads.  The
	// right join key never reaches the output (it is value-identical to the
	// left key), so it is pruned before the gather rather than copied and
	// dropped.  Output rows are not charged as TuplesOut here — the probe
	// phase already reported them; gather moves bytes, it does not produce
	// tuples.
	pruned := &Relation{N: jr.right.N}
	for _, c := range jr.right.Cols {
		if c.Name != jr.rightKey {
			pruned.Cols = append(pruned.Cols, c)
		}
	}
	lOut, w := jr.src.gather(mKeys, lRows)
	rOut := pruned.Gather(rRows)
	out := mergeJoinColumns(lOut, rOut, jr.rightKey)
	ncols := len(out.Cols)
	w.Add(energy.Counters{
		BytesReadDRAM:    rOut.Bytes(),
		BytesWrittenDRAM: lOut.Bytes() + rOut.Bytes(),
		CacheMisses:      uint64(out.N*ncols) / 4,
		Instructions:     uint64(out.N*ncols) * 2,
	})
	ctx.Charge(jr.label+" [gather]", out.N, w)
	return out, nil
}

// mergeJoinColumns concatenates the gathered sides into one relation:
// all left columns, then the right columns minus the right join key
// (value-identical to the left key, whatever it is named).  A right
// column whose name collides with any output column so far is prefixed
// with "r_" repeatedly until unique, so a pre-existing "r_<name>" on
// either side can never be silently overwritten.
func mergeJoinColumns(lOut, rOut *Relation, rightKey string) *Relation {
	out := &Relation{N: lOut.N}
	out.Cols = append(out.Cols, lOut.Cols...)
	have := map[string]bool{}
	for _, c := range lOut.Cols {
		have[c.Name] = true
	}
	for _, c := range rOut.Cols {
		if c.Name == rightKey {
			continue // redundant with the left key
		}
		for have[c.Name] {
			c.Name = "r_" + c.Name
		}
		have[c.Name] = true
		out.Cols = append(out.Cols, c)
	}
	return out
}
