package workload

import (
	"math/rand"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
)

// OpKind classifies trace operations. The mix is calibrated to §6.1:
// ~98.2% of production UC traffic is reads.
type OpKind string

// Trace operation kinds.
const (
	OpGetAsset   OpKind = "GetAsset"         // metadata read by name
	OpResolve    OpKind = "Resolve"          // batched query-path resolution
	OpList       OpKind = "ListAssets"       // container listing
	OpCredByPath OpKind = "CredentialByPath" // temp credential by raw path
	OpUpdateMeta OpKind = "UpdateAsset"      // metadata write
	OpGrantOp    OpKind = "Grant"            // permission write
)

// TraceOp is one operation against one asset at a virtual time.
type TraceOp struct {
	Kind  OpKind
	Asset Asset
	// At is the virtual time offset of the operation.
	At time.Duration
}

// TraceSpec parameterizes trace generation.
type TraceSpec struct {
	Seed int64
	// Ops is the trace length.
	Ops int
}

// The mix is fixed at the paper's figures.
const (
	readFraction       = 0.982                // share of read operations (§6.1)
	pathAccessFraction = 0.07                 // share of tables that ever see access by raw path (Figure 11)
	zipfS              = 1.2                  // asset popularity skew
	meanGap            = 5 * time.Millisecond // mean virtual time between ops: drives Figure 5
)

// GenerateTrace builds an access trace over the population's assets with
// Zipf popularity and exponential op gaps, yielding the temporal locality
// the paper measures (containers re-accessed much sooner than leaf assets,
// because every leaf access implies its container chain).
func GenerateTrace(pop *Population, spec TraceSpec) []TraceOp {
	r := rand.New(rand.NewSource(spec.Seed))

	var leaves []Asset
	for _, a := range pop.Assets {
		if !a.Container {
			leaves = append(leaves, a)
		}
	}
	if len(leaves) == 0 {
		return nil
	}
	zipf := rand.NewZipf(r, zipfS, 1, uint64(len(leaves)-1))

	// pathEligible marks the ~7% of tables that ever see path access.
	pathEligible := map[string]bool{}
	for _, a := range leaves {
		if a.Type == erm.TypeTable && a.StoragePath != "" && r.Float64() < pathAccessFraction {
			pathEligible[a.FullName] = true
		}
	}

	containerOf := func(full string) (cat, sch string) {
		dot1 := -1
		for i := 0; i < len(full); i++ {
			if full[i] == '.' {
				if dot1 < 0 {
					dot1 = i
				} else {
					return full[:dot1], full[:i]
				}
			}
		}
		if dot1 >= 0 {
			return full[:dot1], full
		}
		return full, ""
	}

	var ops []TraceOp
	now := time.Duration(0)
	for len(ops) < spec.Ops {
		now += time.Duration(r.ExpFloat64() * float64(meanGap))
		leaf := leaves[zipf.Uint64()]

		// Every leaf access touches its container chain (metadata
		// resolution authorizes USE CATALOG / USE SCHEMA), producing the
		// container re-access pattern of Figure 5.
		cat, sch := containerOf(leaf.FullName)
		ops = append(ops, TraceOp{Kind: OpGetAsset, Asset: Asset{FullName: cat, Type: erm.TypeCatalog, Container: true}, At: now})
		if sch != "" && sch != cat {
			ops = append(ops, TraceOp{Kind: OpGetAsset, Asset: Asset{FullName: sch, Type: erm.TypeSchema, Container: true}, At: now})
		}

		if r.Float64() >= readFraction {
			// Metadata write.
			if r.Float64() < 0.5 {
				ops = append(ops, TraceOp{Kind: OpUpdateMeta, Asset: leaf, At: now})
			} else {
				ops = append(ops, TraceOp{Kind: OpGrantOp, Asset: leaf, At: now})
			}
			continue
		}
		switch {
		case leaf.Type == erm.TypeTable && pathEligible[leaf.FullName] && r.Float64() < 0.5:
			ops = append(ops, TraceOp{Kind: OpCredByPath, Asset: leaf, At: now})
		case leaf.Type == erm.TypeTable && r.Float64() < 0.3:
			ops = append(ops, TraceOp{Kind: OpResolve, Asset: leaf, At: now})
		case r.Float64() < 0.1:
			ops = append(ops, TraceOp{Kind: OpList, Asset: leaf, At: now})
		default:
			ops = append(ops, TraceOp{Kind: OpGetAsset, Asset: leaf, At: now})
		}
	}
	return ops[:spec.Ops]
}

// ReplayStats aggregates what a replay observed.
type ReplayStats struct {
	Ops    int
	Errors int
	// InterArrivals maps asset type to the virtual-time gaps between
	// successive accesses of the same asset (Figure 5 input).
	InterArrivals map[erm.SecurableType][]time.Duration
	// AccessMethod tallies per-table access method (Figure 11 input):
	// name-only, path-only, or both.
	NameAccessed map[string]bool
	PathAccessed map[string]bool
}

// Replay executes the trace against the live service, collecting the
// statistics the figures need. Virtual time is used for inter-arrival
// bookkeeping; the replay itself runs as fast as the service allows.
func Replay(svc *catalog.Service, admin catalog.Ctx, ops []TraceOp) *ReplayStats {
	stats := &ReplayStats{
		InterArrivals: map[erm.SecurableType][]time.Duration{},
		NameAccessed:  map[string]bool{},
		PathAccessed:  map[string]bool{},
	}
	lastAccess := map[string]time.Duration{}
	granted := map[string]bool{} // by asset; ALL PRIVILEGES because every asset type accepts it

	for _, op := range ops {
		stats.Ops++
		if prev, ok := lastAccess[op.Asset.FullName]; ok {
			stats.InterArrivals[op.Asset.Type] = append(stats.InterArrivals[op.Asset.Type], op.At-prev)
		}
		lastAccess[op.Asset.FullName] = op.At

		var err error
		switch op.Kind {
		case OpGetAsset:
			_, err = svc.GetAsset(admin, op.Asset.FullName)
			if op.Asset.Type == erm.TypeTable {
				stats.NameAccessed[op.Asset.FullName] = true
			}
		case OpResolve:
			_, err = svc.Resolve(admin, catalog.ResolveRequest{Names: []string{op.Asset.FullName}})
			stats.NameAccessed[op.Asset.FullName] = true
		case OpList:
			parent := op.Asset.FullName
			if i := lastDot(parent); i >= 0 {
				parent = parent[:i]
			}
			_, err = svc.ListAssets(admin, parent, "")
		case OpCredByPath:
			_, err = svc.TempCredentialForPath(admin, op.Asset.StoragePath+"/part-0", cloudsim.AccessRead)
			stats.PathAccessed[op.Asset.FullName] = true
		case OpUpdateMeta:
			comment := "updated by trace"
			_, err = svc.UpdateAsset(admin, op.Asset.FullName, catalog.UpdateRequest{Comment: &comment})
		case OpGrantOp:
			if granted[op.Asset.FullName] {
				err = svc.Revoke(admin, op.Asset.FullName, "trace_user", "ALL PRIVILEGES")
			} else {
				err = svc.Grant(admin, op.Asset.FullName, "trace_user", "ALL PRIVILEGES")
			}
			granted[op.Asset.FullName] = !granted[op.Asset.FullName]
		}
		if err != nil {
			stats.Errors++
		}
	}
	return stats
}

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}

// AccessMethodCounts summarizes Figure 11: tables accessed by name only,
// path only, or both.
func (s *ReplayStats) AccessMethodCounts() (nameOnly, pathOnly, both int) {
	for t := range s.NameAccessed {
		if s.PathAccessed[t] {
			both++
		} else {
			nameOnly++
		}
	}
	for t := range s.PathAccessed {
		if !s.NameAccessed[t] {
			pathOnly++
		}
	}
	return nameOnly, pathOnly, both
}
