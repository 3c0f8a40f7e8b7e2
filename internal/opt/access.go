package opt

import (
	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
)

// EstimateFullScan is the statistics-level price of a scan, for the
// scans the executor is not asked about: join sides, DML victim
// searches and scans no aggregation fuses.  A scan that feeds a fused
// aggregation is priced by the executor itself (exec.FusedAggWork).

// EstimateFullScan prices a full scan with the given predicates over a
// table, including materializing ncols output columns.  Streamed bytes
// follow the column's actual compressed footprint (ColStats.
// ScanBytesPerValue, from the catalog's storage snapshot), so plans over
// well-compressed tables are priced cheaper — the operate-on-compressed
// kernels really do touch fewer bytes.
func EstimateFullScan(ts *TableStats, preds []expr.Pred, ncols int) energy.Counters {
	var w energy.Counters
	rows := float64(ts.Rows)
	matched := rows
	for _, p := range preds {
		cs := ts.Cols[p.Col]
		// Fallbacks when no storage snapshot exists: ~2.2 bytes/value for
		// packed int and dictionary-code layouts, full width for floats.
		bpv := cs.ScanBytesPerValue
		switch cs.Type {
		case colstore.Int64:
			if bpv <= 0 {
				bpv = 2.2
			}
			w.BytesReadDRAM += uint64(rows * bpv)
			w.Instructions += uint64(rows * 1.6)
		case colstore.Float64:
			w.BytesReadDRAM += uint64(rows * 8)
			w.Instructions += uint64(rows * 3)
		default:
			// Dictionary-coded equality behaves like an int scan.
			if bpv <= 0 {
				bpv = 2.2
			}
			w.BytesReadDRAM += uint64(rows * bpv)
			w.Instructions += uint64(rows * 1.6)
		}
		w.TuplesIn += uint64(rows)
		matched *= ts.Selectivity(p)
	}
	if len(preds) == 0 {
		// Even a predicate-free aggregation streams one column end to
		// end to count its rows; price that stream, or the estimate
		// degenerates to zero energy — and the serving front end admits
		// clients on plan estimates, so a zero estimate would bypass
		// per-client energy budgets entirely.
		w.TuplesIn += uint64(rows)
		w.BytesReadDRAM += uint64(rows * 2.2)
		w.Instructions += uint64(rows * 1.6)
	}
	w.CacheMisses += uint64(matched * float64(ncols) / 4)
	w.Instructions += uint64(matched * float64(ncols) * 2)
	w.TuplesOut = uint64(matched)
	return w
}
