package engine

import (
	"errors"
	"fmt"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/delta"
	"unitycatalog/internal/lineage"
	"unitycatalog/internal/privilege"
)

// MetadataCatalog is the catalog surface the engine depends on. The core
// catalog.Service satisfies it directly (in-process deployments), and the
// REST client satisfies it over HTTP (catalog-engine separation, §4.1).
type MetadataCatalog interface {
	Resolve(ctx catalog.Ctx, req catalog.ResolveRequest) (*catalog.ResolveResponse, error)
}

// Engine executes SQL over Unity-Catalog-governed Delta tables.
type Engine struct {
	// Name identifies the engine in commit info and client stats.
	Name string
	// Catalog is the metadata service.
	Catalog MetadataCatalog
	// Cloud is the object store data plane (always accessed with vended
	// temporary credentials, never standing access).
	Cloud *cloudsim.Store
	// Trusted marks an engine isolated from user code: it receives FGAC
	// rules and must enforce them (paper §4.3.2).
	Trusted bool
	// FilterService, when set on an untrusted engine, receives delegated
	// queries that involve FGAC-protected tables (the data filtering
	// service of §4.3.2).
	FilterService *Engine
	// Lineage, when set, receives lineage edges for INSERT..SELECT.
	Lineage *lineage.Service
}

// Result is a query result with execution statistics.
type Result struct {
	Batch *delta.Batch
	Count int64 // for COUNT(*)
	// Aggregate holds the value of a SUM/MIN/MAX/AVG projection.
	Aggregate *float64
	// Stats.
	MetadataCalls int
	FilesScanned  int
	FilesSkipped  int
	BytesScanned  int64
	RowsReturned  int
	Delegated     bool // executed via the data filtering service
	Duration      time.Duration
}

// Execute parses and runs one SQL statement as the given principal.
func (e *Engine) Execute(ctx catalog.Ctx, sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.ExecuteStatement(ctx, st)
}

// ExecuteStatement runs a parsed statement.
func (e *Engine) ExecuteStatement(ctx catalog.Ctx, st *Statement) (*Result, error) {
	start := time.Now()
	ctx.TrustedEngine = e.Trusted
	var (
		res *Result
		err error
	)
	switch st.Kind {
	case KindSelect:
		res, err = e.executeSelect(ctx, st)
	case KindInsert:
		res, err = e.executeInsert(ctx, st)
	case KindDelete:
		res, err = e.executeDelete(ctx, st)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %s", st.Kind)
	}
	// Untrusted engines delegate FGAC-protected work to the filtering
	// service rather than failing (paper §4.3.2).
	if err != nil && errors.Is(err, catalog.ErrTrustedEngineRequired) && !e.Trusted && e.FilterService != nil {
		res, err = e.FilterService.ExecuteStatement(ctx, st)
		if res != nil {
			res.Delegated = true
		}
	}
	if res != nil {
		res.Duration = time.Since(start)
	}
	return res, err
}

func (e *Engine) executeSelect(ctx catalog.Ctx, st *Statement) (*Result, error) {
	// Step 2 of §3.4: one batched metadata+credential resolution call.
	resp, err := e.Catalog.Resolve(ctx, catalog.ResolveRequest{
		Names: []string{st.Table}, WithCredentials: true, Access: cloudsim.AccessRead,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{MetadataCalls: 1}
	batch, err := e.scanRelation(ctx, resp, st.Table, st, res, 0)
	if err != nil {
		return nil, err
	}
	if st.CountStar {
		res.Count = int64(batch.NumRows)
		res.RowsReturned = 1
		res.Batch = batch
		return res, nil
	}
	if st.Agg != nil {
		val, err := computeAggregate(batch, st.Agg)
		if err != nil {
			return nil, err
		}
		res.Aggregate = &val
		res.RowsReturned = 1
		res.Batch = batch
		return res, nil
	}
	if st.Limit > 0 && batch.NumRows > st.Limit {
		batch = batch.Slice(0, st.Limit)
	}
	res.Batch = batch
	res.RowsReturned = batch.NumRows
	return res, nil
}

// computeAggregate evaluates one SUM/MIN/MAX/AVG over a numeric column.
func computeAggregate(b *delta.Batch, agg *Aggregate) (float64, error) {
	var vals []float64
	if ints, ok := b.Ints[agg.Column]; ok {
		for _, v := range ints {
			vals = append(vals, float64(v))
		}
	} else if floats, ok := b.Floats[agg.Column]; ok {
		vals = floats
	} else {
		return 0, fmt.Errorf("engine: %s(%s): column missing or not numeric", agg.Fn, agg.Column)
	}
	if len(vals) == 0 {
		return 0, nil
	}
	switch agg.Fn {
	case "SUM", "AVG":
		s := 0.0
		for _, v := range vals {
			s += v
		}
		if agg.Fn == "AVG" {
			return s / float64(len(vals)), nil
		}
		return s, nil
	case "MIN":
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m, nil
	case "MAX":
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m, nil
	}
	return 0, fmt.Errorf("engine: unknown aggregate %s", agg.Fn)
}

// scanRelation reads a resolved relation (table or view) applying the
// statement's projection and predicates plus any FGAC rules.
func (e *Engine) scanRelation(ctx catalog.Ctx, resp *catalog.ResolveResponse, name string, st *Statement, res *Result, depth int) (*delta.Batch, error) {
	if depth > 32 {
		return nil, fmt.Errorf("engine: view nesting too deep at %s", name)
	}
	ra, ok := resp.Assets[name]
	if !ok {
		return nil, fmt.Errorf("engine: %s missing from resolution response", name)
	}
	switch {
	case ra.View != nil:
		// Execute the view definition, then apply the outer statement.
		inner, err := Parse(ra.View.Definition)
		if err != nil {
			return nil, fmt.Errorf("engine: view %s definition: %w", name, err)
		}
		if inner.Kind != KindSelect {
			return nil, fmt.Errorf("engine: view %s definition is not a SELECT", name)
		}
		base, err := e.scanRelation(ctx, resp, inner.Table, inner, res, depth+1)
		if err != nil {
			return nil, err
		}
		return applyStatement(base, st, ctx.Principal)
	case ra.Table != nil:
		if ra.Credential == nil {
			return nil, fmt.Errorf("engine: no credential for %s", name)
		}
		var blobs delta.Blobs = delta.TokenBlobs{Store: e.Cloud, Token: ra.Credential.Credential.Token}
		// A shallow clone's log references the base table's files by
		// absolute URL; route those reads through the base credential the
		// resolution included under the clone's authority.
		if ra.Table.TableType == catalog.TableShallowClone && ra.Table.BaseTable != "" {
			routes := map[string]delta.Blobs{}
			for _, other := range resp.Assets {
				if other.Entity.ID == ra.Table.BaseTable && other.Credential != nil {
					routes[other.Entity.StoragePath] = delta.TokenBlobs{Store: e.Cloud, Token: other.Credential.Credential.Token}
				}
			}
			if len(routes) == 0 {
				return nil, fmt.Errorf("engine: no base-table credential for clone %s", name)
			}
			blobs = delta.RoutingBlobs{Default: blobs, Routes: routes}
		}
		tbl := delta.NewTable(ra.Entity.StoragePath, blobs)
		asOf := int64(-1)
		if st.AsOfVersion != nil {
			asOf = *st.AsOfVersion
		}
		snap, err := tbl.SnapshotAt(asOf)
		if err != nil {
			return nil, fmt.Errorf("engine: open %s: %w", name, err)
		}
		// Build pushdown predicates: the query's WHERE plus FGAC row
		// filters (both prune files and filter rows).
		preds, err := conditionsToPredicates(st.Where, ctx.Principal)
		if err != nil {
			return nil, err
		}
		var fgacMasks []privilege.ColumnMask
		if ra.FGAC != nil {
			for _, rf := range ra.FGAC.RowFilters {
				cond, err := ParseFilterPredicate(rf.Predicate)
				if err != nil {
					return nil, fmt.Errorf("engine: row filter on %s: %w", name, err)
				}
				p, err := conditionToPredicate(cond, ctx.Principal)
				if err != nil {
					return nil, err
				}
				preds = append(preds, p)
			}
			fgacMasks = ra.FGAC.ColumnMasks
		}
		columns := st.Columns
		if st.CountStar {
			// Project the narrowest useful set: predicate columns only.
			columns = predicateColumns(preds)
		}
		if st.Agg != nil {
			columns = []string{st.Agg.Column}
			for _, pc := range predicateColumns(preds) {
				if pc != st.Agg.Column {
					columns = append(columns, pc)
				}
			}
		}
		scan, err := tbl.Scan(snap, columns, preds)
		if err != nil {
			return nil, err
		}
		res.FilesScanned += scan.FilesScanned
		res.FilesSkipped += scan.FilesSkipped
		res.BytesScanned += scan.BytesScanned
		out := scan.Batch
		if len(fgacMasks) > 0 {
			out = ApplyColumnMasks(out, fgacMasks)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("engine: %s is not a table or view", name)
	}
}

func predicateColumns(preds []delta.Predicate) []string {
	if len(preds) == 0 {
		// Scan needs at least one column to count rows; nil means all,
		// which is wasteful but correct. Prefer empty projection via a
		// sentinel: scan all columns of the first file only is incorrect,
		// so keep nil.
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, p := range preds {
		if !seen[p.Column] {
			seen[p.Column] = true
			out = append(out, p.Column)
		}
	}
	return out
}

func conditionsToPredicates(conds []Condition, principal privilege.Principal) ([]delta.Predicate, error) {
	var out []delta.Predicate
	for _, c := range conds {
		p, err := conditionToPredicate(c, principal)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func conditionToPredicate(c Condition, principal privilege.Principal) (delta.Predicate, error) {
	v := c.Value
	if _, isCur := v.(CurrentUser); isCur {
		v = string(principal)
	}
	return delta.Predicate{Column: c.Column, Op: c.Op, Value: v}, nil
}

// applyStatement applies an outer statement's WHERE/projection/limit to an
// already-materialized batch (used above view results).
func applyStatement(b *delta.Batch, st *Statement, principal privilege.Principal) (*delta.Batch, error) {
	preds, err := conditionsToPredicates(st.Where, principal)
	if err != nil {
		return nil, err
	}
	cols := st.Columns
	outSchema := b.Schema
	if cols != nil {
		var fields []delta.SchemaField
		for _, c := range cols {
			f, ok := b.Schema.Field(c)
			if !ok {
				return nil, fmt.Errorf("engine: unknown column %s", c)
			}
			fields = append(fields, f)
		}
		outSchema = delta.Schema{Fields: fields}
	}
	out := delta.NewBatch(outSchema)
	for r := 0; r < b.NumRows; r++ {
		match := true
		for _, p := range preds {
			vals := make([]any, 0, 1)
			_ = vals
			if !predMatch(b, r, p) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		row := make([]any, len(outSchema.Fields))
		for i, f := range outSchema.Fields {
			row[i] = b.Value(r, f.Name)
		}
		if err := out.AppendRow(row...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func predMatch(b *delta.Batch, r int, p delta.Predicate) bool {
	return p.MatchRow(b, r)
}

func (e *Engine) executeInsert(ctx catalog.Ctx, st *Statement) (*Result, error) {
	resp, err := e.Catalog.Resolve(ctx, catalog.ResolveRequest{
		Names: []string{st.Table}, WithCredentials: true, Access: cloudsim.AccessReadWrite,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{MetadataCalls: 1}
	ra := resp.Assets[st.Table]
	if ra == nil || ra.Table == nil || ra.Credential == nil {
		return nil, fmt.Errorf("engine: %s is not a writable table", st.Table)
	}
	tbl := delta.NewTable(ra.Entity.StoragePath, delta.TokenBlobs{Store: e.Cloud, Token: ra.Credential.Credential.Token})
	snap, err := tbl.Snapshot()
	if err != nil {
		return nil, err
	}
	batch := delta.NewBatch(snap.Schema)

	switch {
	case st.Source != nil:
		// INSERT INTO ... SELECT: run the select (own metadata call) and
		// copy rows across.
		srcRes, err := e.executeSelect(ctx, st.Source)
		if err != nil {
			return nil, err
		}
		res.MetadataCalls += srcRes.MetadataCalls
		res.FilesScanned += srcRes.FilesScanned
		res.BytesScanned += srcRes.BytesScanned
		src := srcRes.Batch
		for r := 0; r < src.NumRows; r++ {
			row := make([]any, len(snap.Schema.Fields))
			for i, f := range snap.Schema.Fields {
				row[i] = src.Value(r, f.Name)
			}
			if err := batch.AppendRow(row...); err != nil {
				return nil, fmt.Errorf("engine: schema mismatch inserting into %s: %w", st.Table, err)
			}
		}
		if e.Lineage != nil {
			srcResp, lerr := e.Catalog.Resolve(ctx, catalog.ResolveRequest{Names: []string{st.Source.Table}})
			if lerr != nil || srcResp.Assets[st.Source.Table] == nil {
				return nil, fmt.Errorf("engine: resolve lineage source %s: %w", st.Source.Table, lerr)
			}
			if err := e.Lineage.Submit(ctx, []lineage.Edge{{
				Upstream:   srcResp.Assets[st.Source.Table].Entity.ID,
				Downstream: ra.Entity.ID,
				JobName:    e.Name,
				QueryText:  "INSERT INTO " + st.Table + " SELECT ... FROM " + st.Source.Table,
			}}); err != nil {
				return nil, fmt.Errorf("engine: report lineage of %s: %w", st.Table, err)
			}
		}
	default:
		for _, row := range st.Rows {
			vals := make([]any, len(row))
			for i, v := range row {
				if _, isCur := v.(CurrentUser); isCur {
					vals[i] = string(ctx.Principal)
				} else {
					vals[i] = v
				}
			}
			if err := batch.AppendRow(vals...); err != nil {
				return nil, fmt.Errorf("engine: bad VALUES row: %w", err)
			}
		}
	}
	if _, err := tbl.Append(batch); err != nil {
		return nil, err
	}
	res.RowsReturned = batch.NumRows
	return res, nil
}

// executeDelete runs DELETE FROM ... WHERE using deletion vectors: no data
// file is rewritten, the engine only publishes sidecars — the kind of layout
// decision the catalog stays agnostic to (paper §4.1).
func (e *Engine) executeDelete(ctx catalog.Ctx, st *Statement) (*Result, error) {
	resp, err := e.Catalog.Resolve(ctx, catalog.ResolveRequest{
		Names: []string{st.Table}, WithCredentials: true, Access: cloudsim.AccessReadWrite,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{MetadataCalls: 1}
	ra := resp.Assets[st.Table]
	if ra == nil || ra.Table == nil || ra.Credential == nil {
		return nil, fmt.Errorf("engine: %s is not a writable table", st.Table)
	}
	// FGAC-filtered tables cannot be safely deleted from with predicates the
	// user controls; require full table authority (no active row filters).
	if ra.FGAC != nil && len(ra.FGAC.RowFilters) > 0 {
		return nil, fmt.Errorf("%w: DELETE on a row-filtered table", catalog.ErrPermissionDenied)
	}
	preds, err := conditionsToPredicates(st.Where, ctx.Principal)
	if err != nil {
		return nil, err
	}
	tbl := delta.NewTable(ra.Entity.StoragePath, delta.TokenBlobs{Store: e.Cloud, Token: ra.Credential.Credential.Token})
	deleted, _, err := tbl.DeleteWhere(preds)
	if err != nil {
		return nil, err
	}
	res.Count = deleted
	res.RowsReturned = int(deleted)
	return res, nil
}
