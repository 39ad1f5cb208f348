package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// UsageMeter attributes load to tenants (authenticated principals) with
// bounded memory: four space-saving sketches keyed by principal, fed from
// the HTTP layer (requests, response bytes, latency-weighted cost) and the
// catalog layer (authorized operations). The catalog is the chokepoint
// every engine crosses, so this is the natural place to answer "who is
// generating the load" without instrumenting the engines themselves.
//
// Exported metrics carry the tenant as a label but only ever for the top-K
// tracked keys plus a single aggregate — the sketch, not the label set,
// absorbs unbounded principal cardinality (think swarms of per-agent
// identities sharing one metastore).
type UsageMeter struct {
	// Requests counts HTTP requests per tenant.
	Requests *TopK
	// Bytes counts response-body bytes per tenant.
	Bytes *TopK
	// CostNs accumulates request wall-time per tenant in nanoseconds —
	// "latency-weighted cost", the fairest single number for how much
	// server capacity a tenant consumed.
	CostNs *TopK
	// Ops counts authorized catalog operations per tenant (fed by the
	// catalog layer, so work is attributed on the node that executed it).
	Ops *TopK
}

// ResidualTenant is the label value carrying mass not attributed to a
// tracked tenant (evicted keys' lower-bound remainder).
const ResidualTenant = "_other"

// NewUsageMeter builds a meter tracking the top k tenants per dimension.
func NewUsageMeter(k int) *UsageMeter {
	return &UsageMeter{
		Requests: NewTopK(k),
		Bytes:    NewTopK(k),
		CostNs:   NewTopK(k),
		Ops:      NewTopK(k),
	}
}

// ObserveRequest attributes one finished HTTP request to tenant. Cost: one
// mutexed sketch update per dimension (~3 map hits), no allocation on the
// tracked-key path.
func (m *UsageMeter) ObserveRequest(tenant string, bytes int64, took time.Duration) {
	if m == nil || tenant == "" {
		return
	}
	m.Requests.Observe(tenant, 1)
	if bytes > 0 {
		m.Bytes.Observe(tenant, bytes)
	}
	if took > 0 {
		m.CostNs.Observe(tenant, int64(took))
	}
}

// ObserveOp attributes one authorized catalog operation to tenant.
func (m *UsageMeter) ObserveOp(tenant string) {
	if m == nil || tenant == "" {
		return
	}
	m.Ops.Observe(tenant, 1)
}

// RegisterMetrics exposes the meter as uc_tenant_* families. Each family
// emits one sample per tracked tenant plus a ResidualTenant sample, so the
// scrape-side cardinality is hard-bounded at k+1 per family.
func (m *UsageMeter) RegisterMetrics(r *Registry) {
	write := func(t *TopK, scale float64) func(io.Writer, string) {
		return func(w io.Writer, name string) {
			for _, e := range t.Entries() {
				if scale != 1 {
					fmt.Fprintf(w, "%s{tenant=\"%s\"} %s\n", name, escapeLabel(e.Key), formatFloat(float64(e.Count)*scale))
				} else {
					fmt.Fprintf(w, "%s{tenant=\"%s\"} %d\n", name, escapeLabel(e.Key), e.Count)
				}
			}
			if scale != 1 {
				fmt.Fprintf(w, "%s{tenant=\"%s\"} %s\n", name, ResidualTenant, formatFloat(float64(t.Residual())*scale))
			} else {
				fmt.Fprintf(w, "%s{tenant=\"%s\"} %d\n", name, ResidualTenant, t.Residual())
			}
		}
	}
	r.RegisterCustom("uc_tenant_requests_total", "HTTP requests by tenant (top-K space-saving estimate).", "counter", write(m.Requests, 1))
	r.RegisterCustom("uc_tenant_bytes_total", "Response bytes by tenant (top-K space-saving estimate).", "counter", write(m.Bytes, 1))
	r.RegisterCustom("uc_tenant_cost_seconds_total", "Request wall-time by tenant in seconds (top-K estimate).", "counter", write(m.CostNs, 1e-9))
	r.RegisterCustom("uc_tenant_catalog_ops_total", "Authorized catalog operations by tenant (top-K estimate).", "counter", write(m.Ops, 1))
}

// usageDim is the JSON shape of one metered dimension.
type usageDim struct {
	Total    int64       `json:"total"`
	Residual int64       `json:"residual"`
	Top      []TopKEntry `json:"top"`
}

// WriteJSON renders the meter for /debug/tenants.
func (m *UsageMeter) WriteJSON(w io.Writer) error {
	dim := func(t *TopK) usageDim {
		return usageDim{Total: t.Total(), Residual: t.Residual(), Top: t.Entries()}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]usageDim{
		"requests":    dim(m.Requests),
		"bytes":       dim(m.Bytes),
		"cost_ns":     dim(m.CostNs),
		"catalog_ops": dim(m.Ops),
	})
}
