package erm

import (
	"encoding/binary"
	"fmt"
	"sort"

	"unitycatalog/internal/ids"
)

// encodeEntityV1 is the record encoder as it was before format version 2,
// kept so that every decode test runs over the records an older store holds:
//
//	magic 1 flags | id type name parent full-name owner comment path state |
//	times (time.MarshalBinary) | properties | spec (JSON)
func encodeEntityV1(e *Entity) ([]byte, error) {
	b := make([]byte, 0, 96+len(e.Spec))
	b = append(b, codecMagic, codecV1)
	var flags byte
	if e.Managed {
		flags |= flagManaged
	}
	if e.DeletedAt != nil {
		flags |= flagDeleted
	}
	b = append(b, flags)
	for _, s := range []string{string(e.ID), string(e.Type), e.Name, string(e.ParentID), e.FullName, string(e.Owner), e.Comment, e.StoragePath, string(e.State)} {
		b = appendStr(b, s)
	}
	var err error
	if b, err = appendTime(b, flagTimesBinary, e.CreatedAt); err != nil {
		return nil, fmt.Errorf("erm: encode created_at: %w", err)
	}
	if b, err = appendTime(b, flagTimesBinary, e.UpdatedAt); err != nil {
		return nil, fmt.Errorf("erm: encode updated_at: %w", err)
	}
	if e.DeletedAt != nil {
		if b, err = appendTime(b, flagTimesBinary, *e.DeletedAt); err != nil {
			return nil, fmt.Errorf("erm: encode deleted_at: %w", err)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(e.Properties)))
	keys := make([]string, 0, len(e.Properties))
	for k := range e.Properties {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = appendStr(b, k)
		b = appendStr(b, e.Properties[k])
	}
	return appendBytes(b, specJSON(e.Spec)), nil
}

// encodeEntityV2 is the record encoder as it was before format version 3:
// version 3's layout, whose last field is the spec, with the spec always
// JSON.
func encodeEntityV2(e *Entity) ([]byte, error) {
	cp := *e
	cp.Spec = nil
	b, err := EncodeEntity(&cp)
	if err != nil {
		return nil, err
	}
	b[1] = codecV2
	return appendBytes(b[:len(b)-1], specJSON(e.Spec)), nil // the empty spec's one-byte length goes
}

// specJSON is s as JSON: rendered if it is packed.
func specJSON(s Spec) Spec {
	if !s.Packed() {
		return s
	}
	return Spec(s.AppendJSON(nil))
}

// idValue is the value a stored name or path row held from format version 2
// until the store derived the table: the ID's 16 bytes, or for an ID that is
// not 32 hex digits its string, after idLiteral when it could be taken for
// another form. IndexedID reads it, and replay checks a logged row by it.
func idValue(id ids.ID) []byte {
	if raw, ok := id.AppendRaw(make([]byte, 0, ids.RawLen)); ok {
		return raw
	}
	if len(id) == ids.RawLen || id == "" || id[0] == idLiteral {
		return append([]byte{idLiteral}, id...)
	}
	return []byte(id)
}
