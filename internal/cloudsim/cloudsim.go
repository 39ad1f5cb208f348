// Package cloudsim simulates the cloud infrastructure Unity Catalog governs:
// an object store with S3-like semantics and a security token service (STS)
// that mints short-lived, down-scoped credentials.
//
// The simulator preserves the behaviours the paper's design depends on:
//
//   - clients cannot touch storage without a valid token whose scope covers
//     the accessed path and operation (credential vending, §4.3.1);
//   - tokens expire after a configurable TTL ("valid for tens of minutes");
//   - PutIfAbsent provides the atomic put-if-absent primitive Delta-style
//     table formats use for optimistic log commits;
//   - listing, reading and writing objects by prefix-scoped paths.
//
// Paths are URLs of the form "scheme://bucket/key...". A single Store hosts
// any number of buckets across any number of simulated providers (s3, abfss,
// gs) — the scheme is just part of the path.
package cloudsim

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unitycatalog/internal/clock"
	"unitycatalog/internal/faults"
	"unitycatalog/internal/obs"
)

// Common errors.
var (
	ErrNotFound      = errors.New("cloudsim: object not found")
	ErrExists        = errors.New("cloudsim: object already exists")
	ErrTokenExpired  = errors.New("cloudsim: token expired")
	ErrTokenInvalid  = errors.New("cloudsim: token invalid")
	ErrTokenScope    = errors.New("cloudsim: token scope does not cover path")
	ErrTokenReadOnly = errors.New("cloudsim: token does not permit writes")
)

// AccessLevel is the operation class a token permits.
type AccessLevel string

// Access levels.
const (
	AccessRead      AccessLevel = "READ"
	AccessReadWrite AccessLevel = "READ_WRITE"
)

// Object is a stored blob's metadata plus contents.
type Object struct {
	Path     string
	Size     int64
	Modified time.Time
	Data     []byte
}

// ObjectInfo is metadata without contents, as returned by List.
type ObjectInfo struct {
	Path     string
	Size     int64
	Modified time.Time
}

// Store is the simulated object store plus its STS.
type Store struct {
	mu      sync.RWMutex
	objects map[string]*Object

	Clock    clock.Clock
	TokenTTL time.Duration
	secret   []byte

	// Latency, if set, is added to every data-plane operation.
	Latency time.Duration
	// STSLatency, if set, is added to every credential mint, modeling the
	// cloud provider's remote token service round trip.
	STSLatency time.Duration

	// injector and faultFn are consulted before every storage operation
	// (ops "get", "put", "put_if_absent", "delete", "list") and before
	// every credential mint (op "sts.mint"); a non-nil return is injected
	// as the operation's error. Both are swapped atomically via SetFaults/
	// SetFaultFunc so tests can change schedules while operations are in
	// flight without a data race.
	injector atomic.Pointer[faults.Injector]
	faultFn  atomic.Pointer[faultFunc]

	// stats, updated under RLock by read ops, so they must be atomic
	gets, puts, lists, deletes atomic.Int64
}

// faultFunc boxes a fault callback so it can live in an atomic.Pointer.
type faultFunc struct {
	fn func(op, path string) error
}

// SetFaults installs (or, with nil, removes) the typed fault injector
// consulted by every storage and STS operation.
func (s *Store) SetFaults(inj *faults.Injector) { s.injector.Store(inj) }

// SetFaultFunc installs (or, with nil, removes) an arbitrary fault callback.
// It runs after the typed injector and exists for tests that need precise
// control, e.g. "fail exactly the third put".
func (s *Store) SetFaultFunc(fn func(op, path string) error) {
	if fn == nil {
		s.faultFn.Store(nil)
		return
	}
	s.faultFn.Store(&faultFunc{fn: fn})
}

// New returns a Store with a random STS signing secret and a 15-minute token
// TTL (the paper's "tens of minutes").
func New() *Store {
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		// Deterministic fallback keeps the simulator usable; tokens remain
		// unforgeable within the process because the secret is never exposed.
		copy(secret, []byte("cloudsim-fallback-secret-0123456"))
	}
	return &Store{
		objects:  map[string]*Object{},
		Clock:    clock.Real{},
		TokenTTL: 15 * time.Minute,
		secret:   secret,
	}
}

func normalize(path string) string { return strings.TrimSuffix(path, "/") }

func (s *Store) lag() {
	if s.Latency > 0 {
		time.Sleep(s.Latency)
	}
}

// --- STS ---

// tokenClaims is the signed payload of a temporary credential.
type tokenClaims struct {
	Scope   string      `json:"scope"` // path prefix the token covers
	Level   AccessLevel `json:"level"`
	Expires int64       `json:"exp"` // unix millis
	Nonce   string      `json:"n"`
}

// Credential is a vended temporary credential.
type Credential struct {
	Token     string      `json:"token"`
	Scope     string      `json:"scope"`
	Level     AccessLevel `json:"level"`
	ExpiresAt time.Time   `json:"expires_at"`
}

// Expired reports whether the credential is past its expiry at time now.
func (c Credential) Expired(now time.Time) bool { return !now.Before(c.ExpiresAt) }

// MintCredential issues a token scoped to the path prefix at the given
// access level. Only the catalog service holds a *Store and can mint; this
// models "administrators grant storage access exclusively to the catalog
// service".
func (s *Store) MintCredential(scope string, level AccessLevel) Credential {
	return s.MintCredentialTTL(scope, level, s.TokenTTL)
}

// Mint issues a token like MintCredentialTTL but is subject to fault
// injection (op "sts.mint"), modeling the cloud provider's token service
// throttling or failing. A ttl of 0 uses the store's TokenTTL. Callers that
// must survive STS outages should wrap Mint in a retry policy; the legacy
// MintCredential/MintCredentialTTL entry points remain infallible.
func (s *Store) Mint(scope string, level AccessLevel, ttl time.Duration) (Credential, error) {
	if err := s.fault("sts.mint", scope); err != nil {
		return Credential{}, err
	}
	if ttl <= 0 {
		ttl = s.TokenTTL
	}
	return s.MintCredentialTTL(scope, level, ttl), nil
}

// MintCredentialTTL issues a token with an explicit TTL.
func (s *Store) MintCredentialTTL(scope string, level AccessLevel, ttl time.Duration) Credential {
	if s.STSLatency > 0 {
		time.Sleep(s.STSLatency)
	}
	nonce := make([]byte, 8)
	rand.Read(nonce)
	claims := tokenClaims{
		Scope:   normalize(scope),
		Level:   level,
		Expires: s.Clock.Now().Add(ttl).UnixMilli(),
		Nonce:   hex.EncodeToString(nonce),
	}
	body, _ := json.Marshal(claims)
	mac := hmac.New(sha256.New, s.secret)
	mac.Write(body)
	tok := base64.RawURLEncoding.EncodeToString(body) + "." + base64.RawURLEncoding.EncodeToString(mac.Sum(nil))
	return Credential{
		Token:     tok,
		Scope:     claims.Scope,
		Level:     level,
		ExpiresAt: time.UnixMilli(claims.Expires),
	}
}

// validate parses and checks a token for an operation on path.
func (s *Store) validate(token, path string, write bool) error {
	parts := strings.SplitN(token, ".", 2)
	if len(parts) != 2 {
		return ErrTokenInvalid
	}
	body, err := base64.RawURLEncoding.DecodeString(parts[0])
	if err != nil {
		return ErrTokenInvalid
	}
	sig, err := base64.RawURLEncoding.DecodeString(parts[1])
	if err != nil {
		return ErrTokenInvalid
	}
	mac := hmac.New(sha256.New, s.secret)
	mac.Write(body)
	if !hmac.Equal(sig, mac.Sum(nil)) {
		return ErrTokenInvalid
	}
	var claims tokenClaims
	if err := json.Unmarshal(body, &claims); err != nil {
		return ErrTokenInvalid
	}
	if s.Clock.Now().UnixMilli() >= claims.Expires {
		return ErrTokenExpired
	}
	if !coveredBy(normalize(path), claims.Scope) {
		return fmt.Errorf("%w: %s not under %s", ErrTokenScope, path, claims.Scope)
	}
	if write && claims.Level != AccessReadWrite {
		return ErrTokenReadOnly
	}
	return nil
}

// coveredBy reports whether path is equal to or under the scope prefix at a
// segment boundary.
func coveredBy(path, scope string) bool {
	if path == scope {
		return true
	}
	return strings.HasPrefix(path, scope+"/")
}

// --- data plane (token-gated) ---

// Put writes an object, requiring a write-scoped token.
func (s *Store) Put(token, path string, data []byte) error {
	s.lag()
	if err := s.validate(token, path, true); err != nil {
		return err
	}
	return s.putInternal(path, data, false)
}

// PutIfAbsent writes an object only if no object exists at path; it returns
// ErrExists otherwise. This is the atomic primitive for Delta log commits.
func (s *Store) PutIfAbsent(token, path string, data []byte) error {
	s.lag()
	if err := s.validate(token, path, true); err != nil {
		return err
	}
	return s.putInternal(path, data, true)
}

func (s *Store) fault(op, path string) error {
	if err := s.injector.Load().Check(op, path); err != nil {
		return err
	}
	if f := s.faultFn.Load(); f != nil {
		return f.fn(op, path)
	}
	return nil
}

func (s *Store) putInternal(path string, data []byte, mustBeAbsent bool) error {
	op := "put"
	if mustBeAbsent {
		op = "put_if_absent"
	}
	if err := s.fault(op, path); err != nil {
		return err
	}
	p := normalize(path)
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if mustBeAbsent {
		if _, ok := s.objects[p]; ok {
			return fmt.Errorf("%w: %s", ErrExists, p)
		}
	}
	s.objects[p] = &Object{Path: p, Size: int64(len(cp)), Modified: s.Clock.Now(), Data: cp}
	s.puts.Add(1)
	return nil
}

// Get reads an object, requiring a read-scoped token.
func (s *Store) Get(token, path string) ([]byte, error) {
	s.lag()
	if err := s.validate(token, path, false); err != nil {
		return nil, err
	}
	return s.getInternal(path)
}

func (s *Store) getInternal(path string) ([]byte, error) {
	if err := s.fault("get", path); err != nil {
		return nil, err
	}
	p := normalize(path)
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.objects[p]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	s.gets.Add(1)
	out := make([]byte, len(o.Data))
	copy(out, o.Data)
	return out, nil
}

// Delete removes an object, requiring a write-scoped token.
func (s *Store) Delete(token, path string) error {
	s.lag()
	if err := s.validate(token, path, true); err != nil {
		return err
	}
	if err := s.fault("delete", path); err != nil {
		return err
	}
	p := normalize(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[p]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	delete(s.objects, p)
	s.deletes.Add(1)
	return nil
}

// List returns object metadata under the prefix, sorted by path.
func (s *Store) List(token, prefix string) ([]ObjectInfo, error) {
	s.lag()
	if err := s.validate(token, prefix, false); err != nil {
		return nil, err
	}
	return s.listInternal(prefix)
}

// listInternal propagates injected faults rather than swallowing them: a
// failed LIST must never be indistinguishable from an empty directory.
func (s *Store) listInternal(prefix string) ([]ObjectInfo, error) {
	if err := s.fault("list", prefix); err != nil {
		return nil, err
	}
	p := normalize(prefix)
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []ObjectInfo
	for path, o := range s.objects {
		if path == p || strings.HasPrefix(path, p+"/") {
			out = append(out, ObjectInfo{Path: o.Path, Size: o.Size, Modified: o.Modified})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	s.lists.Add(1)
	return out, nil
}

// --- control plane (catalog-service-only, no token) ---
//
// The catalog service is the sole direct principal on storage; these methods
// model its standing access. Application code must go through the token-
// gated data plane.

// ServicePut writes an object with the catalog service's standing access.
func (s *Store) ServicePut(path string, data []byte) error { return s.putInternal(path, data, false) }

// ServicePutIfAbsent is PutIfAbsent with standing access.
func (s *Store) ServicePutIfAbsent(path string, data []byte) error {
	return s.putInternal(path, data, true)
}

// ServiceGet reads an object with standing access.
func (s *Store) ServiceGet(path string) ([]byte, error) { return s.getInternal(path) }

// ServiceList lists objects with standing access.
func (s *Store) ServiceList(prefix string) ([]ObjectInfo, error) { return s.listInternal(prefix) }

// ServiceDelete removes an object with standing access; missing objects are
// ignored (idempotent cleanup).
func (s *Store) ServiceDelete(path string) {
	p := normalize(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, p)
	s.deletes.Add(1)
}

// ServiceDeleteChecked removes an object with standing access, consulting
// the fault injector like the token-authenticated path does; missing
// objects are still ignored (idempotent cleanup). Callers that must notice
// storage outages during cleanup — e.g. transaction compensation — use this
// instead of ServiceDelete.
func (s *Store) ServiceDeleteChecked(path string) error {
	if err := s.fault("delete", path); err != nil {
		return err
	}
	s.ServiceDelete(path)
	return nil
}

// ServiceDeletePrefix removes every object under prefix and returns the
// number removed (used by lifecycle garbage collection).
func (s *Store) ServiceDeletePrefix(prefix string) int {
	p := normalize(prefix)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for path := range s.objects {
		if path == p || strings.HasPrefix(path, p+"/") {
			delete(s.objects, path)
			n++
		}
	}
	s.deletes.Add(int64(n))
	return n
}

// Stats reports operation counters (gets, puts, lists, deletes).
func (s *Store) Stats() (gets, puts, lists, deletes int64) {
	return s.gets.Load(), s.puts.Load(), s.lists.Load(), s.deletes.Load()
}

// RegisterMetrics exposes the object-store operation counters on r.
func (s *Store) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounterFunc("uc_cloud_gets_total", "Object-store get operations.", s.gets.Load)
	r.RegisterCounterFunc("uc_cloud_puts_total", "Object-store put operations.", s.puts.Load)
	r.RegisterCounterFunc("uc_cloud_lists_total", "Object-store list operations.", s.lists.Load)
	r.RegisterCounterFunc("uc_cloud_deletes_total", "Object-store delete operations.", s.deletes.Load)
}

// TotalBytes returns the total stored bytes under prefix ("" for all).
func (s *Store) TotalBytes(prefix string) int64 {
	p := normalize(prefix)
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for path, o := range s.objects {
		if p == "" || path == p || strings.HasPrefix(path, p+"/") {
			total += o.Size
		}
	}
	return total
}

// ObjectCount returns the number of objects under prefix ("" for all).
func (s *Store) ObjectCount(prefix string) int {
	p := normalize(prefix)
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for path := range s.objects {
		if p == "" || path == p || strings.HasPrefix(path, p+"/") {
			n++
		}
	}
	return n
}
