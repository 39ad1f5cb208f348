package jsonenc

// Per-type encoders for the hot response bodies. Each AppendXxx mirrors the
// struct's field order and omitempty semantics exactly, so the output is
// byte-identical to encoding/json.Marshal of the same value (the
// differential tests in encoders_test.go enforce this for every type here).
// When a struct in catalog/erm/privilege gains a field, the matching encoder
// must change with it — the differential tests fail loudly otherwise.

import (
	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/privilege"
)

// AppendEntity appends one erm.Entity object (null if e is nil).
func AppendEntity(dst []byte, e *erm.Entity) []byte {
	if e == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, `{"id":`...)
	dst = AppendString(dst, string(e.ID))
	dst = append(dst, `,"type":`...)
	dst = AppendString(dst, string(e.Type))
	dst = append(dst, `,"name":`...)
	dst = AppendString(dst, e.Name)
	if e.ParentID != "" {
		dst = append(dst, `,"parent_id":`...)
		dst = AppendString(dst, string(e.ParentID))
	}
	dst = append(dst, `,"full_name":`...)
	dst = AppendString(dst, e.FullName)
	dst = append(dst, `,"owner":`...)
	dst = AppendString(dst, string(e.Owner))
	if e.Comment != "" {
		dst = append(dst, `,"comment":`...)
		dst = AppendString(dst, e.Comment)
	}
	if len(e.Properties) > 0 {
		dst = append(dst, `,"properties":`...)
		dst = AppendStringMap(dst, e.Properties)
	}
	if e.StoragePath != "" {
		dst = append(dst, `,"storage_path":`...)
		dst = AppendString(dst, e.StoragePath)
	}
	if e.Managed {
		dst = append(dst, `,"managed":true`...)
	}
	dst = append(dst, `,"state":`...)
	dst = AppendString(dst, string(e.State))
	dst = append(dst, `,"created_at":`...)
	dst = AppendTime(dst, e.CreatedAt)
	dst = append(dst, `,"updated_at":`...)
	dst = AppendTime(dst, e.UpdatedAt)
	if e.DeletedAt != nil {
		dst = append(dst, `,"deleted_at":`...)
		dst = AppendTime(dst, *e.DeletedAt)
	}
	if len(e.Spec) > 0 {
		dst = append(dst, `,"spec":`...)
		if e.Spec.Packed() {
			dst = e.Spec.AppendJSON(dst) // renders only what AppendRaw leaves as it is
		} else {
			dst = AppendRaw(dst, e.Spec)
		}
	}
	return append(dst, '}')
}

// AppendColumnInfo appends one catalog.ColumnInfo object.
func AppendColumnInfo(dst []byte, c *catalog.ColumnInfo) []byte {
	dst = append(dst, `{"name":`...)
	dst = AppendString(dst, c.Name)
	dst = append(dst, `,"type":`...)
	dst = AppendString(dst, c.Type)
	dst = append(dst, `,"nullable":`...)
	dst = AppendBool(dst, c.Nullable)
	dst = append(dst, `,"position":`...)
	dst = AppendInt(dst, int64(c.Position))
	if c.Comment != "" {
		dst = append(dst, `,"comment":`...)
		dst = AppendString(dst, c.Comment)
	}
	return append(dst, '}')
}

func appendColumns(dst []byte, cols []catalog.ColumnInfo) []byte {
	if cols == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range cols {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendColumnInfo(dst, &cols[i])
	}
	return append(dst, ']')
}

func appendPrincipals(dst []byte, ps []privilege.Principal) []byte {
	if ps == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, p := range ps {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, string(p))
	}
	return append(dst, ']')
}

// AppendFGACPolicy appends a privilege.FGACPolicy object.
func AppendFGACPolicy(dst []byte, p *privilege.FGACPolicy) []byte {
	dst = append(dst, '{')
	first := true
	if len(p.RowFilters) > 0 {
		dst = append(dst, `"row_filters":[`...)
		for i := range p.RowFilters {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendRowFilter(dst, &p.RowFilters[i])
		}
		dst = append(dst, ']')
		first = false
	}
	if len(p.ColumnMasks) > 0 {
		if !first {
			dst = append(dst, ',')
		}
		dst = append(dst, `"column_masks":[`...)
		for i := range p.ColumnMasks {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendColumnMask(dst, &p.ColumnMasks[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendRowFilter(dst []byte, rf *privilege.RowFilter) []byte {
	dst = append(dst, `{"columns":`...)
	dst = AppendStringSlice(dst, rf.Columns)
	dst = append(dst, `,"predicate":`...)
	dst = AppendString(dst, rf.Predicate)
	if len(rf.ExemptPrincipals) > 0 {
		dst = append(dst, `,"exempt_principals":`...)
		dst = appendPrincipals(dst, rf.ExemptPrincipals)
	}
	return append(dst, '}')
}

func appendColumnMask(dst []byte, cm *privilege.ColumnMask) []byte {
	dst = append(dst, `{"column":`...)
	dst = AppendString(dst, cm.Column)
	dst = append(dst, `,"kind":`...)
	dst = AppendString(dst, string(cm.Kind))
	if cm.Replacement != "" {
		dst = append(dst, `,"replacement":`...)
		dst = AppendString(dst, cm.Replacement)
	}
	if cm.KeepLast != 0 {
		dst = append(dst, `,"keep_last":`...)
		dst = AppendInt(dst, int64(cm.KeepLast))
	}
	if len(cm.ExemptPrincipals) > 0 {
		dst = append(dst, `,"exempt_principals":`...)
		dst = appendPrincipals(dst, cm.ExemptPrincipals)
	}
	return append(dst, '}')
}

// AppendTableSpec appends a catalog.TableSpec object. Note that the fgac
// field has a (useless) omitempty tag on a non-pointer struct, so
// encoding/json always emits it; this encoder matches.
func AppendTableSpec(dst []byte, t *catalog.TableSpec) []byte {
	dst = append(dst, `{"table_type":`...)
	dst = AppendString(dst, string(t.TableType))
	dst = append(dst, `,"format":`...)
	dst = AppendString(dst, string(t.Format))
	dst = append(dst, `,"columns":`...)
	dst = appendColumns(dst, t.Columns)
	dst = append(dst, `,"fgac":`...)
	dst = AppendFGACPolicy(dst, &t.FGAC)
	if t.BaseTable != "" {
		dst = append(dst, `,"base_table":`...)
		dst = AppendString(dst, string(t.BaseTable))
	}
	if t.ForeignConnection != "" {
		dst = append(dst, `,"foreign_connection":`...)
		dst = AppendString(dst, t.ForeignConnection)
	}
	if t.ForeignSourceType != "" {
		dst = append(dst, `,"foreign_source_type":`...)
		dst = AppendString(dst, t.ForeignSourceType)
	}
	if t.UniformEnabled {
		dst = append(dst, `,"uniform_enabled":true`...)
	}
	return append(dst, '}')
}

// AppendViewSpec appends a catalog.ViewSpec object.
func AppendViewSpec(dst []byte, v *catalog.ViewSpec) []byte {
	dst = append(dst, `{"definition":`...)
	dst = AppendString(dst, v.Definition)
	if len(v.Dependencies) > 0 {
		dst = append(dst, `,"dependencies":`...)
		dst = AppendStringSlice(dst, v.Dependencies)
	}
	if len(v.Columns) > 0 {
		dst = append(dst, `,"columns":`...)
		dst = appendColumns(dst, v.Columns)
	}
	return append(dst, '}')
}

// AppendCredential appends a cloudsim.Credential object.
func AppendCredential(dst []byte, c *cloudsim.Credential) []byte {
	dst = append(dst, `{"token":`...)
	dst = AppendString(dst, c.Token)
	dst = append(dst, `,"scope":`...)
	dst = AppendString(dst, c.Scope)
	dst = append(dst, `,"level":`...)
	dst = AppendString(dst, string(c.Level))
	dst = append(dst, `,"expires_at":`...)
	dst = AppendTime(dst, c.ExpiresAt)
	return append(dst, '}')
}

// AppendTempCredential appends a catalog.TempCredential object.
func AppendTempCredential(dst []byte, tc *catalog.TempCredential) []byte {
	dst = append(dst, `{"asset_id":`...)
	dst = AppendString(dst, string(tc.Asset))
	dst = append(dst, `,"asset_name":`...)
	dst = AppendString(dst, tc.AssetName)
	dst = append(dst, `,"credential":`...)
	dst = AppendCredential(dst, &tc.Credential)
	dst = append(dst, `,"level":`...)
	dst = AppendString(dst, string(tc.Level))
	return append(dst, '}')
}

// AppendResolvedAsset appends a catalog.ResolvedAsset object.
func AppendResolvedAsset(dst []byte, ra *catalog.ResolvedAsset) []byte {
	if ra == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, `{"entity":`...)
	dst = AppendEntity(dst, ra.Entity)
	if ra.Table != nil {
		dst = append(dst, `,"table":`...)
		dst = AppendTableSpec(dst, ra.Table)
	}
	if ra.View != nil {
		dst = append(dst, `,"view":`...)
		dst = AppendViewSpec(dst, ra.View)
	}
	if ra.FGAC != nil {
		dst = append(dst, `,"fgac":`...)
		dst = AppendFGACPolicy(dst, ra.FGAC)
	}
	if ra.Credential != nil {
		dst = append(dst, `,"credential":`...)
		dst = AppendTempCredential(dst, ra.Credential)
	}
	if ra.ViaView {
		dst = append(dst, `,"via_view":true`...)
	}
	return append(dst, '}')
}

// AppendResolveResponse appends a catalog.ResolveResponse object with the
// assets map in sorted key order, as encoding/json emits maps.
func AppendResolveResponse(dst []byte, resp *catalog.ResolveResponse) []byte {
	dst = append(dst, `{"assets":`...)
	if resp.Assets == nil {
		dst = append(dst, "null"...)
	} else if len(resp.Assets) == 0 {
		dst = append(dst, "{}"...)
	} else {
		keys := make([]string, 0, len(resp.Assets))
		for k := range resp.Assets {
			keys = append(keys, k)
		}
		sortStrings(keys)
		dst = append(dst, '{')
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendString(dst, k)
			dst = append(dst, ':')
			dst = AppendResolvedAsset(dst, resp.Assets[k])
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `,"metastore_version":`...)
	dst = AppendUint(dst, resp.MetastoreVersion)
	return append(dst, '}')
}
