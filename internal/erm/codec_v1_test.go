package erm

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// encodeEntityV1 is the record encoder as it was before format version 2,
// kept so that every decode test runs over the records an older store holds:
//
//	magic 1 flags | id type name parent full-name owner comment path state |
//	times (time.MarshalBinary) | properties | spec
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
	return appendBytes(b, e.Spec), nil
}
