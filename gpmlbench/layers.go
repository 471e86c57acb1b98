package main

import (
	"context"
	"encoding/json"
	"time"

	"gpml"
	"gpml/internal/graph"
	"gpml/internal/lexer"
	"gpml/internal/normalize"
	"gpml/internal/parser"
	"gpml/internal/plan"
	"gpml/internal/qcache"
)

// Calls into single layers, each wrapped in a span. The program itself
// carries no instrumentation: every span here is measured from the
// benchmark's side of a public entry point.

// compileProbe times each front-end stage of one statement under a root
// "probe" span: lexer.Tokenize, parser.Parse (which lexes again
// internally), normalize.Normalize and plan.Analyze. The probe runs next
// to the operation, not inside it, so it never counts toward the
// operation's own time.
func compileProbe(log *spanLog, src string, req int64) error {
	t0 := time.Now()
	if _, err := lexer.Tokenize(src); err != nil {
		return err
	}
	t1 := time.Now()
	stmt, err := parser.Parse(src)
	if err != nil {
		return err
	}
	t2 := time.Now()
	norm, err := normalize.Normalize(stmt)
	if err != nil {
		return err
	}
	t3 := time.Now()
	if _, err := plan.Analyze(norm, plan.Options{}); err != nil {
		return err
	}
	t4 := time.Now()
	root := log.record("probe", t0, t4, -1, req)
	log.record("lexer.tokenize", t0, t1, root, req)
	log.record("parser.parse", t1, t2, root, req)
	log.record("normalize.normalize", t2, t3, root, req)
	log.record("plan.analyze", t3, t4, root, req)
	return nil
}

// drained is what one streamed query produced.
type drained struct {
	rows     int
	fp       fingerprint // filled only when fingerprinting was asked for
	firstRow time.Duration
}

// streamDrain runs q.Stream on st and drains it. Spans: eval.first_row
// (Stream call to first row, or to end of stream when there is none) with
// child eval.open (until Stream returns), then eval.drain (first row to
// end). With fp set, every row is encoded exactly as gpmld's NDJSON row
// record and folded into the fingerprint.
func streamDrain(ctx context.Context, log *spanLog, parent int, req int64, q *gpml.Query, st graph.Store, fp bool, opts ...gpml.Option) (drained, error) {
	var d drained
	t0 := time.Now()
	rows, err := q.Stream(ctx, st, opts...)
	if err != nil {
		return d, err
	}
	defer rows.Close()
	tOpen := time.Now()
	cols := q.Columns()
	var tFirst time.Time
	for rows.Next() {
		if d.rows == 0 {
			tFirst = time.Now()
		}
		d.rows++
		row := rows.Row()
		if fp {
			cells := make([]string, len(cols))
			for i, c := range cols {
				if b, ok := row.Get(c); ok {
					cells[i] = b.String()
				} else {
					cells[i] = "NULL"
				}
			}
			line, err := json.Marshal(map[string][]string{"row": cells})
			if err != nil {
				return d, err
			}
			d.fp.add(line)
		}
	}
	if err := rows.Err(); err != nil {
		return d, err
	}
	tEnd := time.Now()
	if d.rows == 0 {
		tFirst = tEnd
	}
	d.firstRow = tFirst.Sub(t0)
	fr := log.record("eval.first_row", t0, tFirst, parent, req)
	log.record("eval.open", t0, tOpen, fr, req)
	log.record("eval.drain", tFirst, tEnd, parent, req)
	return d, nil
}

// prepare is an in-process caller's prepared-statement lookup, keyed the
// way gpmld keys its plan cache: by normalize.QueryKey, compiling on a
// miss. It records normalize.querykey and (on a miss) compile spans.
func prepare(log *spanLog, parent int, req int64, c *qcache.Cache, src string) (*gpml.Query, error) {
	t0 := time.Now()
	key, err := normalize.QueryKey(src)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	log.record("normalize.querykey", t0, t1, parent, req)
	if v, ok := c.Get(key); ok {
		return v.(*gpml.Query), nil
	}
	q, err := gpml.Compile(src)
	if err != nil {
		return nil, err
	}
	c.Put(key, q)
	log.record("compile", t1, time.Now(), parent, req)
	return q, nil
}
