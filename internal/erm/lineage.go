package erm

import (
	"encoding/binary"
	"strings"
	"time"

	"unitycatalog/internal/ids"
	"unitycatalog/internal/store"
)

// Edge is one lineage relationship (paper §4.4): downstream was produced from
// upstream. It is two rows of the metastore that holds both ends, TableLineage
// keyed upstream first with the rest of it and TableLineageUp keyed downstream
// first with nothing, so a walk either way is one prefix scan per asset.
type Edge struct {
	Upstream   ids.ID `json:"upstream"`
	Downstream ids.ID `json:"downstream"`
	// JobName and QueryText identify the producing workload.
	JobName   string    `json:"job_name,omitempty"`
	QueryText string    `json:"query_text,omitempty"`
	Principal string    `json:"principal,omitempty"`
	Time      time.Time `json:"time"`
}

// edgeKey is an edge's key in either lineage table: from is its upstream in
// TableLineage and its downstream in TableLineageUp.
func edgeKey(from, to ids.ID, job string) string {
	return string(from) + "\x00" + string(to) + "\x00" + job
}

// PutEdge writes e's two rows inside tx, unless tx already holds an edge with
// e's upstream, downstream and job: an edge is recorded once.
func PutEdge(tx *store.Tx, e *Edge) {
	key := edgeKey(e.Upstream, e.Downstream, e.JobName)
	if _, ok := tx.Get(TableLineage, key); ok {
		return
	}
	b := appendStr(appendStr(appendStr(nil, e.JobName), e.QueryText), e.Principal)
	tx.Put(TableLineage, key, binary.LittleEndian.AppendUint64(b, uint64(e.Time.UnixNano())))
	tx.Put(TableLineageUp, edgeKey(e.Downstream, e.Upstream, e.JobName), nil)
}

// DeleteEdges deletes inside tx both rows of every edge id is an end of.
func DeleteEdges(tx *store.Tx, id ids.ID) {
	p := string(id) + "\x00"
	for _, t := range [2][2]string{{TableLineage, TableLineageUp}, {TableLineageUp, TableLineage}} {
		for _, kv := range tx.Scan(t[0], p) { // a row of t[0] and its mirror in t[1]
			other, job, _ := strings.Cut(kv.Key[len(p):], "\x00")
			tx.Delete(t[0], kv.Key)
			tx.Delete(t[1], edgeKey(ids.ID(other), id, job))
		}
	}
}

// Edges reads id's edges at r's version, in key order: those id is the
// upstream of when down is set, else those it is the downstream of.
func Edges(r Reader, id ids.ID, down bool) []Edge {
	p, table := string(id)+"\x00", TableLineageUp
	if down {
		table = TableLineage
	}
	var out []Edge
	for _, kv := range r.Scan(table, p) {
		other, job, _ := strings.Cut(kv.Key[len(p):], "\x00")
		e, rec, ok := Edge{Upstream: id, Downstream: ids.ID(other)}, kv.Value, true
		if !down {
			e.Upstream, e.Downstream = e.Downstream, id
			rec, ok = r.Get(TableLineage, edgeKey(e.Upstream, id, job))
		}
		d := decoder{b: rec}
		e.JobName, e.QueryText, e.Principal = d.str(), d.str(), d.str()
		if t := d.skip(8); ok && d.err == nil {
			e.Time = time.Unix(0, int64(binary.LittleEndian.Uint64(t))).UTC()
			out = append(out, e)
		}
	}
	return out
}
