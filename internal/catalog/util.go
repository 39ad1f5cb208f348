package catalog

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"unitycatalog/internal/clock"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
)

func encodeJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("catalog: encode: %w", err)
	}
	return b, nil
}

func decodeJSON(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("catalog: decode: %w", err)
	}
	return nil
}

// tokenCache caches vended credentials keyed by (asset, principal, level)
// and reuses them while at least half their TTL remains — the paper's
// "UC might cache unexpired tokens to accelerate future access".
type tokenCache struct {
	mu  sync.Mutex
	m   map[tokenKey]cloudsim.Credential
	clk clock.Clock
}

type tokenKey struct {
	asset     ids.ID
	principal privilege.Principal
	level     cloudsim.AccessLevel
}

func newTokenCache(clk clock.Clock) *tokenCache {
	return &tokenCache{m: map[tokenKey]cloudsim.Credential{}, clk: clk}
}

func (tc *tokenCache) get(k tokenKey, minRemaining time.Duration) (cloudsim.Credential, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	c, ok := tc.m[k]
	if !ok {
		return cloudsim.Credential{}, false
	}
	if tc.clk.Now().Add(minRemaining).After(c.ExpiresAt) {
		delete(tc.m, k)
		return cloudsim.Credential{}, false
	}
	return c, true
}

func (tc *tokenCache) put(k tokenKey, c cloudsim.Credential) {
	c.Scope = strings.Clone(c.Scope) // may be a decoded entity's StoragePath; the cache outlives it
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if len(tc.m) > 1<<16 {
		// Simple pressure valve: drop expired entries, then arbitrary ones.
		now := tc.clk.Now()
		for key, cred := range tc.m {
			if cred.Expired(now) {
				delete(tc.m, key)
			}
		}
		for key := range tc.m {
			if len(tc.m) <= 1<<15 {
				break
			}
			delete(tc.m, key)
		}
	}
	tc.m[k] = c
}

// invalidateAsset drops all cached tokens for an asset (called on revokes
// and deletes; active tokens remain valid until expiry, as in the paper).
func (tc *tokenCache) invalidateAsset(id ids.ID) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for k := range tc.m {
		if k.asset == id {
			delete(tc.m, k)
		}
	}
}
