package erm

import (
	"encoding/binary"
	"strings"
	"time"

	"unitycatalog/internal/ids"
	"unitycatalog/internal/store"
)

// Edge is one lineage relationship (paper §4.4): downstream was produced from
// upstream. It is one record of the metastore that holds both ends, in
// TableLineage keyed upstream first; the store derives its TableLineageUp row,
// keyed downstream first (edgeGroup), so a walk either way is one prefix scan
// per asset.
type Edge struct {
	Upstream   ids.ID `json:"upstream"`
	Downstream ids.ID `json:"downstream"`
	// JobName and QueryText identify the producing workload.
	JobName   string    `json:"job_name,omitempty"`
	QueryText string    `json:"query_text,omitempty"`
	Principal string    `json:"principal,omitempty"`
	Time      time.Time `json:"time"`
}

// edgeKey is an edge's key in TableLineage.
func edgeKey(up, down ids.ID, job string) string {
	return string(up) + "\x00" + string(down) + "\x00" + job
}

// edgeGroup and edgeSort are the upstream table's derivation: the edge
// record upstream\0downstream\0job has the row downstream\0upstream\0job, in
// group downstream\0. The row's value is empty; its group row carries the
// edge's record.
func edgeGroup(dst []byte, key string, _ []byte) ([]byte, bool) {
	_, rest, ok := strings.Cut(key, "\x00")
	down, _, ok2 := strings.Cut(rest, "\x00")
	if !ok || !ok2 {
		return dst, false
	}
	return append(append(dst, down...), 0), true
}

func edgeSort(dst []byte, key string, _ []byte) []byte {
	up, rest, _ := strings.Cut(key, "\x00")
	_, job, _ := strings.Cut(rest, "\x00")
	return append(append(append(dst, up...), 0), job...)
}

// PutEdge writes e's record inside tx, unless tx already holds an edge with
// e's upstream, downstream and job: an edge is recorded once.
func PutEdge(tx *store.Tx, e *Edge) {
	key := edgeKey(e.Upstream, e.Downstream, e.JobName)
	if _, ok := tx.Get(TableLineage, key); ok {
		return
	}
	b := appendStr(appendStr(appendStr(nil, e.JobName), e.QueryText), e.Principal)
	tx.Put(TableLineage, key, binary.LittleEndian.AppendUint64(b, uint64(e.Time.UnixNano())))
}

// Edges reads id's edges at r's version, in key order: those id is the
// upstream of when down is set, else those it is the downstream of, whose
// upstream rows carry their records.
func Edges(r Reader, id ids.ID, down bool) []Edge {
	p := string(id) + "\x00"
	var out []Edge
	add := func(other ids.ID, rec []byte) {
		e := Edge{Upstream: id, Downstream: other}
		if !down {
			e.Upstream, e.Downstream = other, id
		}
		d := decoder{b: rec}
		e.JobName, e.QueryText, e.Principal = d.str(), d.str(), d.str()
		if t := d.skip(8); d.err == nil {
			e.Time = time.Unix(0, int64(binary.LittleEndian.Uint64(t))).UTC()
			out = append(out, e)
		}
	}
	if down {
		for _, kv := range r.Scan(TableLineage, p) {
			other, _, _ := strings.Cut(kv.Key[len(p):], "\x00")
			add(ids.ID(other), kv.Value)
		}
		return out
	}
	for _, row := range r.GroupRows(TableLineageUp, p, store.PrefixEnd(p), 0) {
		up, _, _ := strings.Cut(row.Sort, "\x00")
		add(ids.ID(up), row.Value)
	}
	return out
}
