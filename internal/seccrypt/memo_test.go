package seccrypt

import (
	"crypto/ed25519"
	"errors"
	"math/rand"
	"testing"

	"past/internal/id"
	"past/internal/wire"
)

func testCard(t *testing.T) (*Broker, *Smartcard) {
	t.Helper()
	broker, err := NewBroker(DetRand(0xfeed))
	if err != nil {
		t.Fatal(err)
	}
	card, err := broker.IssueCard(1<<30, 1<<30, 0, DetRand(0xbeef))
	if err != nil {
		t.Fatal(err)
	}
	return broker, card
}

// TestMemoNeverServesStalePositive is the safety property of the
// verification memo: once a certificate has verified successfully (and
// the outcome is cached), any mutation of the signed body or of the
// signature must miss the cache and fail verification — the cached
// positive can never leak onto different bytes.
func TestMemoNeverServesStalePositive(t *testing.T) {
	broker, card := testCard(t)
	cert, err := card.IssueFileCertificate("stale.bin", []byte("content"), 3, []byte{1, 2}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the memo and confirm a hit on re-verification.
	for i := 0; i < 3; i++ {
		if err := VerifyFileCertificate(broker.PublicKey(), &cert, 100); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
	}
	h0, _ := MemoStats()
	if err := VerifyFileCertificate(broker.PublicKey(), &cert, 100); err != nil {
		t.Fatal(err)
	}
	if h1, _ := MemoStats(); h1 <= h0 {
		t.Fatal("repeated verification should hit the memo")
	}

	// Mutate each signed body field in turn: every mutation must fail.
	mutations := []func(c *wire.FileCertificate){
		func(c *wire.FileCertificate) { c.Size++ },
		func(c *wire.FileCertificate) { c.Replicas++ },
		func(c *wire.FileCertificate) { c.Issued++ },
		func(c *wire.FileCertificate) { c.FileID[0] ^= 0xff },
		func(c *wire.FileCertificate) { c.ContentHash[0] ^= 0xff },
		func(c *wire.FileCertificate) { c.Salt = append([]byte(nil), 9, 9) },
	}
	for i, mutate := range mutations {
		bad := cert
		mutate(&bad)
		if err := VerifyFileCertificate(broker.PublicKey(), &bad, 100); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("mutation %d: want ErrBadSignature, got %v", i, err)
		}
	}
	// Mutated signature must fail even though the body is cached-valid.
	bad := cert
	bad.Sig = append([]byte(nil), cert.Sig...)
	bad.Sig[0] ^= 1
	if err := VerifyFileCertificate(broker.PublicKey(), &bad, 100); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("mutated sig: want ErrBadSignature, got %v", err)
	}
	// Mutated card certification must fail.
	bad = cert
	bad.CardCert = append([]byte(nil), cert.CardCert...)
	bad.CardCert[len(bad.CardCert)-1] ^= 1
	if err := VerifyFileCertificate(broker.PublicKey(), &bad, 100); !errors.Is(err, ErrBadCardCert) {
		t.Fatalf("mutated card cert: want ErrBadCardCert, got %v", err)
	}
	// The original still verifies after all the poisoned probes.
	if err := VerifyFileCertificate(broker.PublicKey(), &cert, 100); err != nil {
		t.Fatalf("original after probes: %v", err)
	}
}

// TestMemoNegativeCached checks that invalid outcomes are also memoized
// and stay invalid.
func TestMemoNegativeCached(t *testing.T) {
	broker, card := testCard(t)
	cert, err := card.IssueFileCertificate("neg.bin", []byte("x"), 1, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	bad := cert
	bad.Sig = append([]byte(nil), cert.Sig...)
	bad.Sig[10] ^= 0x40
	for i := 0; i < 3; i++ {
		h0, m0 := MemoStats()
		if err := VerifyFileCertificate(broker.PublicKey(), &bad, 100); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("pass %d: want ErrBadSignature, got %v", i, err)
		}
		// After the first pass both the card certification and the
		// rejected owner signature are served from the memo.
		if h1, m1 := MemoStats(); i > 0 && (h1 != h0+2 || m1 != m0) {
			t.Fatalf("pass %d: memo hits %d->%d misses %d->%d, want two hits and no miss", i, h0, h1, m0, m1)
		}
	}
}

// TestMemoExpiryNotCached confirms time-dependent verdicts stay outside
// the memo: the same card certification verifies before expiry and fails
// after, regardless of caching.
func TestMemoExpiryNotCached(t *testing.T) {
	broker, err := NewBroker(DetRand(7))
	if err != nil {
		t.Fatal(err)
	}
	card, err := broker.IssueCard(1<<20, 0, 500, DetRand(8))
	if err != nil {
		t.Fatal(err)
	}
	pub := card.PublicKey()
	if err := VerifyCardCert(broker.PublicKey(), pub, card.CardCert(), 100); err != nil {
		t.Fatalf("before expiry: %v", err)
	}
	if err := VerifyCardCert(broker.PublicKey(), pub, card.CardCert(), 100); err != nil {
		t.Fatalf("before expiry (cached): %v", err)
	}
	if err := VerifyCardCert(broker.PublicKey(), pub, card.CardCert(), 501); !errors.Is(err, ErrExpired) {
		t.Fatalf("after expiry: want ErrExpired, got %v", err)
	}
}

// TestMemoLRUEviction fills one stripe far past capacity and confirms
// both that evicted entries re-verify correctly and that the memo keeps
// returning correct outcomes throughout.
func TestMemoLRUEviction(t *testing.T) {
	_, priv, err := ed25519.GenerateKey(DetRand(42))
	if err != nil {
		t.Fatal(err)
	}
	pub := priv.Public().(ed25519.PublicKey)
	body := make([]byte, 16)
	// Push far more distinct messages than the whole memo holds.
	for i := 0; i < memoStripeCount*memoStripeCap+512; i++ {
		body[0], body[1] = byte(i), byte(i>>8)
		sig := ed25519.Sign(priv, body)
		if !memoVerify(pub, body, sig) {
			t.Fatalf("valid signature %d rejected", i)
		}
		sig[0] ^= 1
		if memoVerify(pub, body, sig) {
			t.Fatalf("invalid signature %d accepted", i)
		}
	}
	// The earliest entry has been evicted; it must still verify correctly
	// via a fresh ed25519.Verify.
	body[0], body[1] = 0, 0
	sig := ed25519.Sign(priv, body)
	if !memoVerify(pub, body, sig) {
		t.Fatal("evicted entry no longer verifies")
	}
}

// TestStoreReceiptMemo covers the receipt verification path: valid
// receipts verify repeatedly, and tampering with the signed fields fails.
func TestStoreReceiptMemo(t *testing.T) {
	_, card := testCard(t)
	ref := wire.NodeRef{ID: card.NodeID(), Addr: "sim:0"}
	rcpt := wire.StoreReceipt{
		FileID:     id.RandFile(1),
		StoredBy:   ref,
		OnBehalfOf: ref,
		Size:       128,
	}
	card.SignStoreReceipt(&rcpt)
	for i := 0; i < 2; i++ {
		h0, m0 := MemoStats()
		if err := VerifyStoreReceipt(&rcpt); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
		if h1, m1 := MemoStats(); i > 0 && (h1 != h0+1 || m1 != m0) {
			t.Fatalf("pass %d: memo hits %d->%d misses %d->%d, want one hit and no miss", i, h0, h1, m0, m1)
		}
	}
	bad := rcpt
	bad.Size++
	if err := VerifyStoreReceipt(&bad); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered receipt: want ErrBadSignature, got %v", err)
	}
}

// TestVerifySingleMatchesStdlib property-tests the memo-backed verifier
// against crypto/ed25519.Verify over valid, corrupted and non-canonical
// inputs. Every case is checked twice — a memo miss, then a memo hit —
// and both verdicts must equal the stdlib's.
func TestVerifySingleMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		pub, priv, err := ed25519.GenerateKey(rng)
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, 1+rng.Intn(300))
		rng.Read(msg)
		sig := ed25519.Sign(priv, msg)
		mutate := func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[rng.Intn(len(out))] ^= 1 << uint(rng.Intn(8))
			return out
		}
		cases := []struct {
			name          string
			pub, msg, sig []byte
		}{
			{"valid", pub, msg, sig},
			{"bad-sig", pub, msg, mutate(sig)},
			{"bad-msg", pub, mutate(msg), sig},
			{"bad-pub", mutate(pub), msg, sig},
			{"high-s", pub, msg, func() []byte {
				out := append([]byte(nil), sig...)
				out[63] |= 0xe0 // push s out of canonical range
				return out
			}()},
		}
		for _, c := range cases {
			want := ed25519.Verify(c.pub, c.msg, c.sig)
			for pass, wantHit := range []bool{false, true} {
				h0, m0 := MemoStats()
				got := memoVerify(c.pub, c.msg, c.sig)
				h1, m1 := MemoStats()
				if got != want {
					t.Fatalf("trial %d %s pass %d: memoVerify=%v stdlib=%v", trial, c.name, pass, got, want)
				}
				if hit := h1 == h0+1 && m1 == m0; hit != wantHit || h1-h0+m1-m0 != 1 {
					t.Fatalf("trial %d %s pass %d: memo hits %d->%d misses %d->%d, want hit=%v",
						trial, c.name, pass, h0, h1, m0, m1, wantHit)
				}
			}
		}
	}

	// A truncated signature inside a receipt is rejected, without a
	// panic, on every pass, exactly as the stdlib rejects it.
	_, card := testCard(t)
	r := wire.StoreReceipt{FileID: id.RandFile(2), StoredBy: wire.NodeRef{ID: card.NodeID()}, Size: 64}
	card.SignStoreReceipt(&r)
	r.Sig = r.Sig[:32]
	if ed25519.Verify(r.NodePub, storeReceiptBody(&r), r.Sig) {
		t.Fatal("stdlib accepted a truncated signature")
	}
	for pass := 0; pass < 2; pass++ {
		if err := VerifyStoreReceipt(&r); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("truncated receipt signature, pass %d: want ErrBadSignature, got %v", pass, err)
		}
		if memoVerify(r.NodePub, storeReceiptBody(&r), r.Sig) {
			t.Fatalf("truncated signature accepted on pass %d", pass)
		}
	}
}
