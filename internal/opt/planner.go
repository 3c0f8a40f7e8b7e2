package opt

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/expr"
)

// SelectItem is one output of a query: a plain column or an aggregate.
type SelectItem struct {
	Col string
	Agg expr.AggFunc // AggNone for plain columns
	As  string
}

// Name returns the output column name of the item.
func (s SelectItem) Name() string {
	if s.As != "" {
		return s.As
	}
	if s.Agg == expr.AggNone {
		return s.Col
	}
	name := strings.ToLower(s.Agg.String())
	if s.Col != "" {
		name += "_" + s.Col
	}
	return name
}

// JoinSpec joins the accumulated left side to a new table:
// left.LeftCol = Table.RightCol.
type JoinSpec struct {
	Table    string
	LeftCol  string
	RightCol string
}

// Query is the logical query shared by the SQL front end and the
// procedural builder — the "hybrid query language" surface of §II.
type Query struct {
	From    string
	Joins   []JoinSpec
	Preds   []expr.Pred
	Select  []SelectItem
	GroupBy []string
	OrderBy []expr.SortKey
	LimitN  int // 0 = no limit
}

// TableStorageInfo reports the storage-format axis of one scanned table:
// how well its sealed segments compress and how many physical bytes the
// planner expects the scan to stream.
type TableStorageInfo struct {
	Ratio        float64 // stored/raw bytes of the base table (<1 compresses)
	StoredBytes  uint64  // compressed footprint of the base table
	RawBytes     uint64  // uncompressed footprint
	EstScanBytes uint64  // estimated DRAM bytes the scan streams
}

// JoinPlanInfo reports one join decision: the sides (probe = outer,
// build = hashed), whether the build side is expected to need a radix
// partition pass, and the estimated partition-pass and probe-pass DRAM
// bytes from the cost model — the numbers that let E-reports attribute
// join energy to its phases before the query runs.
type JoinPlanInfo struct {
	Probe, Build      string // table name; "⋈" for an intermediate result
	LeftKey, RightKey string
	// Partitioned reports that the estimated build side outgrows one
	// cache-resident table (exec.RadixBits > 0) and is radix-scattered.
	Partitioned bool
	// CoPartitioned reports that both sides are value-range-sharded on
	// the join keys with aligned cuts, so the join runs shard-pair by
	// shard-pair with no radix scatter (exec.ShardedJoin).
	CoPartitioned bool
	// FusedProbe reports that the probe feed fuses into the probe-side
	// scan: selected keys stream straight from the compressed segments
	// and the intermediate probe relation is never materialized.
	FusedProbe bool
	// FusedAgg reports that the aggregation above this join takes its
	// matches straight into partial aggregates (the probe's aggregate
	// sink): no pair list, no gathered join relation.
	FusedAgg       bool
	EstProbeRows   float64
	EstBuildRows   float64
	EstOutRows     float64
	PartitionBytes uint64 // estimated bytes moved by the radix scatter
	// ProbeBytes is the estimated key bytes the probe pass streams: the
	// key column's compressed bytes for a fused probe (its
	// ScanBytesPerValue per row), 8 a row from a materialized relation.
	ProbeBytes uint64
	// EstProbe is the probe pass's estimated counts, the lookup phase's
	// price arguments (exec.ProbeWork); Fold the shape its matches fold
	// at when FusedAgg (exec.ProbeFoldWork).
	EstProbe exec.ProbeCounts
	Fold     exec.ProbeFold
}

// PlanInfo reports what the planner decided.
type PlanInfo struct {
	Explain string
	Est     Cost // total estimated cost
	// Storage reports, per scanned table, the compression ratio of its
	// sealed segments and the estimated bytes this plan streams —
	// the storage-format axis of the energy model.
	Storage map[string]TableStorageInfo
	// Joins lists every join in execution order with its side, operator,
	// and byte-estimate decisions.
	Joins []JoinPlanInfo
	// FusedAgg reports that the aggregation never materializes its input
	// (exec/fused.go): it folds its child scan's selection vectors
	// (filter→aggregate) or its child join's matches (probe→aggregate,
	// also flagged on that join's JoinPlanInfo) straight into partial
	// aggregates; FusedProbes lists the probe-side tables whose join probe
	// feed fuses likewise.  All are answered by the executor's own
	// eligibility checks, and the fused-away work is credited out of Est.
	FusedAgg    bool
	FusedProbes []string
	// ShardsScanned/ShardsPruned count shards across every scan in the
	// plan over more than one shard: pruned shards were disqualified by
	// their zone bounds before a single morsel was enumerated, and their
	// bytes are shed from Est.
	ShardsScanned int
	ShardsPruned  int
	// JoinOrder is the table order the join-ordering pass chose (empty
	// when the query has fewer than two joins or the pass was skipped);
	// JoinOrderExact reports whether the exact DP solved it, as opposed
	// to the greedy heuristic past opt.DPLimit tables.
	JoinOrder      []string
	JoinOrderExact bool
	// ShareSig is the plan's shared-scan signature: queries with equal
	// signatures produce identical plans over identical catalog state,
	// so the multi-query scheduler may execute one and hand every
	// lookalike the same relation.  It is the canonical SQL rendering —
	// the round-trip form both language fronts normalize to.
	ShareSig string
}

// Plan lowers the logical query onto the physical operator tree.  Every
// table is reached by the one exec.Scan over its shard list, priced by
// EstimateFullScan per surviving shard.
func (c *Catalog) Plan(q *Query, cm *CostModel) (exec.Node, *PlanInfo, error) {
	if q.From == "" {
		return nil, nil, fmt.Errorf("opt: query has no FROM table")
	}
	info := &PlanInfo{Storage: map[string]TableStorageInfo{}, ShareSig: q.String()}

	// Partition predicates by owning table.
	tables := []string{q.From}
	for _, j := range q.Joins {
		tables = append(tables, j.Table)
	}
	predsOf := make(map[string][]expr.Pred)
	for _, p := range q.Preds {
		owner, err := c.ownerOf(p.Col, tables)
		if err != nil {
			return nil, nil, err
		}
		p, err = c.coercePred(p, owner)
		if err != nil {
			return nil, nil, err
		}
		predsOf[owner] = append(predsOf[owner], p)
	}

	// Needed columns per table: join keys plus referenced outputs.
	needed := make(map[string]map[string]bool)
	// needIn resolves col among the given tables and marks it needed on
	// its owner.
	needIn := func(col string, among []string) error {
		owner, err := c.ownerOf(col, among)
		if err != nil {
			return err
		}
		if needed[owner] == nil {
			needed[owner] = map[string]bool{}
		}
		needed[owner][col] = true
		return nil
	}
	addNeed := func(col string) error { return needIn(col, tables) }
	for _, s := range q.Select {
		if s.Col != "" {
			if err := addNeed(s.Col); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, g := range q.GroupBy {
		if err := addNeed(g); err != nil {
			return nil, nil, err
		}
	}
	for _, k := range q.OrderBy {
		// Order-by may reference aggregate aliases; those are not table
		// columns.
		if _, err := c.ownerOf(k.Col, tables); err == nil {
			if err := addNeed(k.Col); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, j := range q.Joins {
		if err := addNeed(j.LeftCol); err != nil {
			return nil, nil, err
		}
		// The right key is the joined table's own column whatever it is
		// named: resolved by name, a key both sides spell alike would land
		// on the left table and the build scan would never emit its key.
		if err := needIn(j.RightCol, []string{j.Table}); err != nil {
			return nil, nil, err
		}
	}

	// scan plans the access to one table as the one exec.Scan over its
	// shard list: zone-prune the list (the same live check the executor
	// makes), price only the survivors under their own statistics (the
	// estimate sheds every pruned byte), and sum the per-shard estimates.
	scan := func(table string) (*exec.Scan, error) {
		preds := predsOf[table]
		var sel []string
		for col := range needed[table] {
			sel = append(sel, col)
		}
		slices.Sort(sel)
		st, err := c.Lookup(table)
		if err != nil {
			return nil, err
		}
		s := &exec.Scan{Source: st, Select: sel, Preds: preds}
		shards := st.Shards()
		keep := exec.PruneShards(shards, preds)
		var est Cost
		for i, u := range shards {
			if !keep[i] {
				info.ShardsPruned++
				continue
			}
			ts, err := c.Stats(u.Name)
			if err != nil {
				return nil, err
			}
			est = est.plus(cm.Price(EstimateFullScan(ts, preds, len(sel)), 0))
			if len(shards) > 1 {
				info.ShardsScanned++
			}
		}
		info.Est = info.Est.plus(est)
		if ts, err := c.Stats(table); err == nil {
			info.Storage[table] = TableStorageInfo{
				Ratio:        ts.Storage.Ratio(),
				StoredBytes:  ts.Storage.StoredBytes,
				RawBytes:     ts.Storage.RawBytes,
				EstScanBytes: est.Work.BytesReadDRAM,
			}
		}
		return s, nil
	}

	// Estimated post-predicate cardinality per table, for join ordering
	// and build-side sizing.
	estRows := func(table string) float64 {
		ts, err := c.Stats(table)
		if err != nil {
			return 0
		}
		rows := float64(ts.Rows)
		for _, p := range predsOf[table] {
			rows *= ts.Selectivity(p)
		}
		return rows
	}

	// Join ordering and side sizing happen before any scan node is built.
	// Reordering and side swaps change the output column order, so they
	// only run when the query's output shape is pinned by an explicit
	// SELECT list or a GROUP BY.
	shapeFixed := len(q.Select) > 0 || len(q.GroupBy) > 0
	first, seq := c.orderJoins(q, tables, estRows, shapeFixed, info)

	// Columns the join output must keep: everything the SELECT list,
	// GROUP BY, ORDER BY, or a later join's keys reference.  The join
	// operators dedupe the (value-identical) right key column out of
	// their output, so side choices must never make a referenced column
	// the dropped one.
	outRefs := map[string]bool{}
	for _, s := range q.Select {
		if s.Col != "" {
			outRefs[s.Col] = true
		}
	}
	for _, g := range q.GroupBy {
		outRefs[g] = true
	}
	for _, k := range q.OrderBy {
		if _, err := c.ownerOf(k.Col, tables); err == nil {
			outRefs[k.Col] = true
		}
	}

	type joinDecision struct {
		pj                   plannedJoin
		swap                 bool // accumulated side becomes the build side
		probeRows, buildRows float64
		outRows              float64
		ncols                int // output width, for the gather estimate
	}
	decisions := make([]joinDecision, 0, len(seq))
	accRows := estRows(first)
	accCols := len(needed[first])
	for i, pj := range seq {
		d := joinDecision{pj: pj, probeRows: accRows, buildRows: estRows(pj.table)}
		// Build-side sizing: hash the smaller input.  Then veto any
		// orientation whose deduped right key is still referenced
		// downstream (by the output or a later join).
		d.swap = shapeFixed && d.probeRows < d.buildRows
		dropProtected := func(col string) bool {
			if outRefs[col] {
				return true
			}
			for _, later := range seq[i+1:] {
				if later.leftCol == col || later.rightCol == col {
					return true
				}
			}
			return false
		}
		// A query referencing BOTH key columns by name cannot be served —
		// the join always dedupes one — and fails in Project with a clear
		// error, exactly as it did before side sizing existed; the veto
		// guarantees sizing never breaks a query that was servable.
		if d.swap && dropProtected(pj.leftCol) {
			d.swap = false
		} else if shapeFixed && !d.swap && dropProtected(pj.rightCol) && !dropProtected(pj.leftCol) {
			d.swap = true
		}
		if d.swap {
			d.probeRows, d.buildRows = d.buildRows, d.probeRows
		}
		d.outRows = clampCard(d.probeRows * d.buildRows * pj.sel)
		accCols += len(needed[pj.table])
		d.ncols = accCols
		decisions = append(decisions, d)
		accRows = d.outRows
	}

	rootScan, err := scan(first)
	if err != nil {
		return nil, nil, err
	}
	// root is the accumulated plan; rootScan is non-nil while root still
	// is the bare scan of one table — the only shape a consumer fuses.
	var root exec.Node = rootScan
	rootName := first
	for _, d := range decisions {
		right, err := scan(d.pj.table)
		if err != nil {
			return nil, nil, err
		}
		var probe, build exec.Node = root, right
		probeScan, buildScan := rootScan, right
		probeName, buildName := rootName, d.pj.table
		lk, rk := d.pj.leftCol, d.pj.rightCol
		if d.swap {
			probe, build = build, probe
			probeScan, buildScan = buildScan, probeScan
			probeName, buildName = buildName, probeName
			lk, rk = rk, lk
		}
		// The one join — or, when both sides are sharded on the join keys
		// with aligned cuts, its co-partitioned driver: every key is owned
		// by the same shard index on both sides, so it runs pair by pair.
		coPart := exec.CoPartitionEligible(probeScan, buildScan, lk, rk)
		if coPart {
			root = &exec.ShardedJoin{Left: probeScan, Right: buildScan, LeftKey: lk, RightKey: rk}
		} else {
			root = &exec.Join{Left: probe, Right: build, LeftKey: lk, RightKey: rk}
		}
		rootScan = nil
		rootName = "⋈"
		// A co-partitioned join is one join per shard pair over that pair's
		// share of the rows (assumed even).
		pairs := 1.0
		if coPart {
			pairs = float64(buildScan.Source.NumShards())
		}
		// Fused probe feed: the probe-side scan never materializes its
		// relation, and its keys stream compressed and resolve span-wise.
		fused := !coPart && probeScan != nil && exec.FusedProbeEligible(probeScan, lk)
		pc, keyBytes := c.probeCounts(d.probeRows/pairs, d.buildRows/pairs, d.outRows/pairs, fused, probeName, lk, buildName, rk)
		ji := JoinPlanInfo{
			Probe: probeName, Build: buildName,
			LeftKey: lk, RightKey: rk,
			Partitioned:   exec.RadixBits(int(d.buildRows/pairs)) > 0,
			CoPartitioned: coPart,
			FusedProbe:    fused,
			EstProbeRows:  d.probeRows, EstBuildRows: d.buildRows, EstOutRows: d.outRows,
		}
		var w energy.Counters
		for range int(pairs) {
			w.Add(estimateJoin(pc, d.buildRows/pairs, keyBytes, d.ncols))
			ji.EstProbe.Add(pc)
			ji.ProbeBytes += keyBytes
		}
		info.Est = info.Est.plus(cm.Price(w, 0))
		if ji.Partitioned {
			ji.PartitionBytes = uint64(d.buildRows * (8 + 12))
		}
		if fused {
			info.FusedProbes = append(info.FusedProbes, probeName)
			info.credit(cm, c.scanMaterialization(probeName, predsOf[probeName], len(needed[probeName])))
		}
		info.Joins = append(info.Joins, ji)
	}

	// Aggregation.
	hasAgg := len(q.GroupBy) > 0
	for _, s := range q.Select {
		if s.Agg != expr.AggNone {
			hasAgg = true
		}
	}
	if hasAgg {
		var aggs []expr.AggSpec
		for _, s := range q.Select {
			if s.Agg != expr.AggNone {
				aggs = append(aggs, expr.AggSpec{Func: s.Agg, Col: s.Col, As: s.Name()})
			}
		}
		// Fused filter→aggregate: the scan's filtered relation is never
		// materialized — on any shard — so the estimate sheds its
		// materialization terms.
		switch {
		case rootScan != nil && exec.FusedAggEligible(rootScan, q.GroupBy, aggs):
			info.FusedAgg = true
			info.credit(cm, c.scanMaterialization(q.From, predsOf[q.From], len(needed[q.From])))
		default:
			// Fused probe→aggregate: the last join's matches fold straight
			// into partial aggregates, so its pair list and gathered output
			// are never written; the fold takes their place in the estimate.
			fold, ok := exec.FusedProbeAgg(root, q.GroupBy, aggs)
			if !ok {
				break
			}
			last, d := &info.Joins[len(info.Joins)-1], decisions[len(decisions)-1]
			info.FusedAgg, last.FusedAgg, last.Fold = true, true, fold
			info.credit(cm, estimateJoinOutput(d.outRows, d.ncols))
			info.Est = info.Est.plus(cm.Price(exec.ProbeFoldWork(fold, last.EstProbe.Matches, last.EstProbe.Touches), 0))
		}
		root = &exec.HashAgg{Child: root, GroupBy: q.GroupBy, Aggs: aggs}
	}
	if len(q.OrderBy) > 0 {
		root = &exec.Sort{Child: root, Keys: q.OrderBy}
	}
	if q.LimitN > 0 {
		root = &exec.Limit{Child: root, N: q.LimitN}
	}
	// Final projection to the requested output shape (skip when the agg
	// already produced exactly the requested columns).
	if len(q.Select) > 0 && !hasAgg {
		names := make([]string, len(q.Select))
		for i, s := range q.Select {
			names[i] = s.Name()
		}
		root = &exec.Project{Child: root, Names: names}
	}
	info.Explain = exec.Explain(root)
	return root, info, nil
}

// probeCounts estimates one probe pass's counts (exec.ProbeCounts) and
// the key bytes it streams.  A fused probe streams its key column's
// compressed bytes and resolves at most its span-wise keys
// (colstore.Table.SpanKeys); a materialized relation streams 8 bytes a
// row and looks every row up.  A build key with one row per value reads
// each matching key's build entry once, and a key finds its build row as
// often as the build side's predicates keep one (buildRows of the
// table's).  Steps are estimated at one per lookup.
func (c *Catalog) probeCounts(rows, buildRows, out float64, fused bool, probe, lk, build, rk string) (exec.ProbeCounts, uint64) {
	n, m := int(rows), int(out)
	pc := exec.ProbeCounts{Rows: n, Keys: n, Matches: m, Touches: m}
	keyBytes := uint64(rows * 8)
	if fused {
		if ps, err := c.Stats(probe); err == nil {
			keyBytes = uint64(rows * ps.Cols[lk].ScanBytesPerValue)
		}
		if st, err := c.Lookup(probe); err == nil {
			pc.Keys = min(n, st.Shard(0).SpanKeys(lk))
		}
	}
	if bs, err := c.Stats(build); err == nil && bs.Rows > 0 && bs.Cols[rk].Distinct >= bs.Rows {
		pc.Touches = min(m, int(float64(pc.Keys)*min(1, buildRows/float64(bs.Rows))))
	}
	pc.Steps = pc.Keys
	return pc, keyBytes
}

// coercePred adapts numeric literal types to the column type, so SQL like
// `amount > 100` works against a DOUBLE column.
func (c *Catalog) coercePred(p expr.Pred, table string) (expr.Pred, error) {
	ts, err := c.Stats(table)
	if err != nil {
		return p, err
	}
	cs := ts.Cols[p.Col]
	switch {
	case cs.Type == colstore.Float64 && p.Val.Kind == colstore.Int64:
		p.Val = expr.FloatVal(float64(p.Val.I))
	case cs.Type == colstore.Int64 && p.Val.Kind == colstore.Float64:
		i := int64(p.Val.F)
		if float64(i) != p.Val.F {
			return p, fmt.Errorf("opt: non-integral literal %g compared with BIGINT column %q", p.Val.F, p.Col)
		}
		p.Val = expr.IntVal(i)
	case cs.Type == colstore.String && p.Val.Kind != colstore.String:
		return p, fmt.Errorf("opt: numeric literal compared with VARCHAR column %q", p.Col)
	case cs.Type != colstore.String && p.Val.Kind == colstore.String:
		return p, fmt.Errorf("opt: string literal compared with numeric column %q", p.Col)
	}
	return p, nil
}

// plannedJoin is one join step of the left-deep chain after ordering:
// table joins into the accumulated side on leftCol (accumulated) =
// rightCol (table), with the estimated edge selectivity.
type plannedJoin struct {
	table    string
	leftCol  string
	rightCol string
	sel      float64
}

// joinSel estimates an equi-join edge's selectivity with the textbook
// 1/max(distinct) rule over the two key columns.
func (c *Catalog) joinSel(tables []string, lcol, rtable, rcol string) float64 {
	d := 1
	if lt := c.keyOwner(lcol, tables); lt != "" {
		if ts, err := c.Stats(lt); err == nil {
			if cs, ok := ts.Cols[lcol]; ok && cs.Distinct > d {
				d = cs.Distinct
			}
		}
	}
	if ts, err := c.Stats(rtable); err == nil {
		if cs, ok := ts.Cols[rcol]; ok && cs.Distinct > d {
			d = cs.Distinct
		}
	}
	return 1 / float64(d)
}

// keyOwner resolves a join-key column to its owning table ("" if
// unresolvable; the scan build will surface the error).
func (c *Catalog) keyOwner(col string, tables []string) string {
	owner, err := c.ownerOf(col, tables)
	if err != nil {
		return ""
	}
	return owner
}

// orderJoins runs the join-ordering pass over a multi-join query: the
// query's join specs become an undirected join graph (nodes = tables
// with post-predicate cardinality estimates, edges = join predicates
// with 1/max(distinct) selectivities) and the so-far-offline OrderDP
// solves it exactly up to DPLimit tables, with the greedy
// smallest-intermediate-first heuristic beyond (JoinGraph.Order).  The
// chosen order is rebuilt into a left-deep plannedJoin chain.  Queries
// with fewer than two joins, an unpinned output shape (reordering
// permutes columns), or a disconnection under the chosen order keep
// their written order.
func (c *Catalog) orderJoins(q *Query, tables []string, estRows func(string) float64, shapeFixed bool, info *PlanInfo) (string, []plannedJoin) {
	seq := make([]plannedJoin, 0, len(q.Joins))
	for _, j := range q.Joins {
		seq = append(seq, plannedJoin{
			table: j.Table, leftCol: j.LeftCol, rightCol: j.RightCol,
			sel: c.joinSel(tables, j.LeftCol, j.Table, j.RightCol),
		})
	}
	if len(q.Joins) < 2 || !shapeFixed {
		return q.From, seq
	}
	idx := make(map[string]int, len(tables))
	jts := make([]JoinTable, len(tables))
	for i, t := range tables {
		idx[t] = i
		jts[i] = JoinTable{Name: t, Rows: estRows(t)}
	}
	g := NewJoinGraph(jts)
	type joinEdge struct {
		pj   plannedJoin
		a, b int // a owns leftCol, b is pj.table
	}
	edges := make([]joinEdge, 0, len(seq))
	for _, pj := range seq {
		lt := c.keyOwner(pj.leftCol, tables)
		if lt == "" || idx[lt] == idx[pj.table] {
			return q.From, seq // unresolvable or self-edge: keep written order
		}
		g.AddEdge(idx[lt], idx[pj.table], pj.sel)
		edges = append(edges, joinEdge{pj: pj, a: idx[lt], b: idx[pj.table]})
	}
	order, _, exact := g.Order()
	placed := make([]bool, len(tables))
	placed[order[0]] = true
	used := make([]bool, len(edges))
	out := make([]plannedJoin, 0, len(seq))
	for _, t := range order[1:] {
		found := -1
		for ei, e := range edges {
			if used[ei] {
				continue
			}
			if (placed[e.a] && e.b == t) || (placed[e.b] && e.a == t) {
				found = ei
				break
			}
		}
		if found < 0 {
			// The order asks for a cross product the query never wrote;
			// keep the written sequence instead of inventing one.
			return q.From, seq
		}
		e := edges[found]
		used[found] = true
		pj := e.pj
		if e.b != t {
			// The new table owns the left column: flip the edge so the
			// accumulated side keeps the left role.
			pj = plannedJoin{table: tables[e.a], leftCol: e.pj.rightCol, rightCol: e.pj.leftCol, sel: e.pj.sel}
		}
		out = append(out, pj)
		placed[t] = true
	}
	info.JoinOrderExact = exact
	info.JoinOrder = make([]string, len(order))
	for i, t := range order {
		info.JoinOrder[i] = tables[t]
	}
	return tables[order[0]], out
}

// ownerOf resolves a column to the first table in the query that has it.
func (c *Catalog) ownerOf(col string, tables []string) (string, error) {
	for _, tn := range tables {
		ts, err := c.Stats(tn)
		if err != nil {
			return "", err
		}
		if _, ok := ts.Cols[col]; ok {
			return tn, nil
		}
	}
	return "", fmt.Errorf("opt: column %q not found in %v", col, tables)
}
