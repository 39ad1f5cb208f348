package catalog

import (
	"fmt"
	"sort"
	"strings"

	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
)

// This file provides the volume file operations: volumes are the paper's
// non-tabular asset type (directories of files in cloud storage, §3.2), and
// every file operation goes through the same credential-vending machinery as
// table data — the catalog never proxies bytes.

// VolumeFileInfo describes one file in a volume.
type VolumeFileInfo struct {
	// Name is the path relative to the volume root.
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// volumeCred vends a credential for the volume at the level.
func (s *Service) volumeCred(ctx Ctx, volumeFull string, level cloudsim.AccessLevel) (TempCredential, *erm.Entity, error) {
	ms, err := s.meta(ctx.Metastore)
	if err != nil {
		return TempCredential{}, nil, err
	}
	v, err := s.view(ctx)
	if err != nil {
		return TempCredential{}, nil, err
	}
	defer v.Close()
	chain, err := s.resolveChain(v, ms, volumeFull)
	if err != nil {
		return TempCredential{}, nil, err
	}
	e := leaf(chain)
	if e.Type != erm.TypeVolume {
		return TempCredential{}, nil, fmt.Errorf("%w: %s is not a volume", ErrInvalidArgument, volumeFull)
	}
	tc, err := s.vend(ctx, v, chain, level)
	return tc, e, err
}

// WriteVolumeFile uploads a file into a volume using a vended credential
// (requires WRITE VOLUME).
func (s *Service) WriteVolumeFile(ctx Ctx, volumeFull, name string, data []byte) error {
	if strings.Contains(name, "..") || strings.HasPrefix(name, "/") {
		return fmt.Errorf("%w: bad file name %q", ErrInvalidArgument, name)
	}
	tc, _, err := s.volumeCred(ctx, volumeFull, cloudsim.AccessReadWrite)
	if err != nil {
		return err
	}
	return s.cloud.Put(tc.Credential.Token, tc.Credential.Scope+"/"+name, data)
}

// ReadVolumeFile downloads a file from a volume (requires READ VOLUME).
func (s *Service) ReadVolumeFile(ctx Ctx, volumeFull, name string) ([]byte, error) {
	tc, _, err := s.volumeCred(ctx, volumeFull, cloudsim.AccessRead)
	if err != nil {
		return nil, err
	}
	return s.cloud.Get(tc.Credential.Token, tc.Credential.Scope+"/"+name)
}

// DeleteVolumeFile removes a file from a volume (requires WRITE VOLUME).
func (s *Service) DeleteVolumeFile(ctx Ctx, volumeFull, name string) error {
	tc, _, err := s.volumeCred(ctx, volumeFull, cloudsim.AccessReadWrite)
	if err != nil {
		return err
	}
	return s.cloud.Delete(tc.Credential.Token, tc.Credential.Scope+"/"+name)
}

// ListVolumeFiles lists files in a volume (requires READ VOLUME).
func (s *Service) ListVolumeFiles(ctx Ctx, volumeFull string) ([]VolumeFileInfo, error) {
	tc, e, err := s.volumeCred(ctx, volumeFull, cloudsim.AccessRead)
	if err != nil {
		return nil, err
	}
	infos, err := s.cloud.List(tc.Credential.Token, tc.Credential.Scope)
	if err != nil {
		return nil, err
	}
	out := make([]VolumeFileInfo, 0, len(infos))
	for _, info := range infos {
		out = append(out, VolumeFileInfo{
			Name: strings.TrimPrefix(info.Path, e.StoragePath+"/"),
			Size: info.Size,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
