package seccrypt

// Signature-verification memoization.
//
// PAST re-verifies the same certificates many times on the hot path: an
// insert's file certificate is checked by the root and then independently
// by each of the k replica holders (plus every caching node along the
// route), and each of those checks also re-verifies the owner card's
// broker certification. A single ed25519.Verify costs tens of
// microseconds; hashing the verified triple costs well under one. The
// memo below caches Verify outcomes keyed by a collision-resistant digest
// of (public key, signature, message body), so each distinct certificate
// is verified cryptographically once per process and served from the
// cache thereafter.
//
// Safety: the cache key commits to the exact public key, signature and
// serialized body bytes. Any mutation of a certificate field changes the
// body serialization (or the signature), producing a different key and
// therefore a cache miss — a stale positive is impossible short of a
// SHA-256 collision. Negative outcomes are cached too, which also
// rate-limits repeated garbage. Expiry checks stay outside the memo:
// only the pure signature relation is cached, never time-dependent
// verdicts.

import (
	"crypto/ed25519"
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

const (
	// memoStripeCount is the number of independently locked LRU shards;
	// a power of two so the shard index is a cheap mask. Striping keeps
	// the memo uncontended when the parallel experiment engine runs many
	// simulations at once.
	memoStripeCount = 16
	// memoStripeCap bounds each shard; the memo holds at most
	// memoStripeCount*memoStripeCap outcomes (~8k certificates, ~300 KiB).
	memoStripeCap = 512
)

// memoKey is the SHA-256 of pubkey ‖ signature ‖ body. The fixed widths
// of ed25519 keys (32 B) and signatures (64 B) make the concatenation
// unambiguous.
type memoKey [sha256.Size]byte

// memoStripe is one shard: a fixed-capacity exact LRU over an intrusive
// doubly-linked list of preallocated slots (no per-entry allocation).
type memoStripe struct {
	mu    sync.Mutex
	index map[memoKey]int32
	slots []memoSlot
	head  int32 // most recently used, -1 when empty
	tail  int32 // least recently used, -1 when empty
}

type memoSlot struct {
	key        memoKey
	ok         bool
	prev, next int32
}

type verifyMemo struct {
	stripes [memoStripeCount]memoStripe
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// memo is the process-wide verification cache.
var memo verifyMemo

// MemoStats returns the cumulative hit and miss counts of the
// verification memo (for benchmarks and tests). Hits count probes served
// from the cache; misses count fresh ed25519 verifications.
func MemoStats() (hits, misses uint64) {
	return memo.hits.Load(), memo.misses.Load()
}

// lookup returns the cached outcome for key, promoting it to
// most-recently-used.
func (s *memoStripe) lookup(key memoKey) (ok, found bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, found := s.index[key]
	if !found {
		return false, false
	}
	s.moveToFront(i)
	return s.slots[i].ok, true
}

// store records an outcome, evicting the least-recently-used entry when
// the stripe is full.
func (s *memoStripe) store(key memoKey, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index == nil {
		s.index = make(map[memoKey]int32, memoStripeCap)
		s.slots = make([]memoSlot, 0, memoStripeCap)
		s.head, s.tail = -1, -1
	}
	if i, found := s.index[key]; found {
		s.slots[i].ok = ok
		s.moveToFront(i)
		return
	}
	var i int32
	if len(s.slots) < memoStripeCap {
		i = int32(len(s.slots))
		s.slots = append(s.slots, memoSlot{})
	} else {
		i = s.tail
		s.unlink(i)
		delete(s.index, s.slots[i].key)
	}
	s.slots[i] = memoSlot{key: key, ok: ok, prev: -1, next: s.head}
	if s.head >= 0 {
		s.slots[s.head].prev = i
	}
	s.head = i
	if s.tail < 0 {
		s.tail = i
	}
	s.index[key] = i
}

// unlink detaches slot i from the LRU list. Lock held.
func (s *memoStripe) unlink(i int32) {
	sl := &s.slots[i]
	if sl.prev >= 0 {
		s.slots[sl.prev].next = sl.next
	} else {
		s.head = sl.next
	}
	if sl.next >= 0 {
		s.slots[sl.next].prev = sl.prev
	} else {
		s.tail = sl.prev
	}
	sl.prev, sl.next = -1, -1
}

// moveToFront promotes slot i to most-recently-used. Lock held by caller.
func (s *memoStripe) moveToFront(i int32) {
	if s.head == i {
		return
	}
	s.unlink(i)
	s.slots[i].next = s.head
	if s.head >= 0 {
		s.slots[s.head].prev = i
	}
	s.head = i
	if s.tail < 0 {
		s.tail = i
	}
}

// bodyPool recycles the scratch buffers used to serialize certificate
// bodies and memo key material, so verification allocates nothing in
// steady state.
var bodyPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 512)
		return &b
	},
}

func getBody() *[]byte  { return bodyPool.Get().(*[]byte) }
func putBody(b *[]byte) { bodyPool.Put(b) }

// verifyBody serializes a signed body into a pooled scratch buffer via
// build and checks sig over it through the memo. All Verify* helpers
// funnel through here so the pool handling lives in one place.
func verifyBody(pub ed25519.PublicKey, sig []byte, build func(buf []byte) []byte) bool {
	bp := getBody()
	body := build((*bp)[:0])
	ok := memoVerify(pub, body, sig)
	*bp = body
	putBody(bp)
	return ok
}

// memoVerify reports whether sig is a valid ed25519 signature of body
// under pub, consulting the memo first and calling ed25519.Verify on a
// miss. Inputs of non-canonical sizes are rejected without touching the
// memo; ed25519.Verify would return false for such a signature and panic
// on such a key, and both arrive here from untrusted peers.
func memoVerify(pub ed25519.PublicKey, body, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	kb := getBody()
	mat := append((*kb)[:0], pub...)
	mat = append(mat, sig...)
	mat = append(mat, body...)
	key := memoKey(sha256.Sum256(mat))
	*kb = mat
	putBody(kb)

	stripe := &memo.stripes[key[0]&(memoStripeCount-1)]
	if ok, found := stripe.lookup(key); found {
		memo.hits.Add(1)
		return ok
	}
	ok := ed25519.Verify(pub, body, sig)
	memo.misses.Add(1)
	stripe.store(key, ok)
	return ok
}
