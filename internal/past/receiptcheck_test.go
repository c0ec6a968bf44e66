package past

import (
	"errors"
	"testing"

	"past/internal/cluster"
	"past/internal/id"
	"past/internal/pastry"
	"past/internal/seccrypt"
	"past/internal/simnet"
	"past/internal/wire"
)

// receiptRig is one simulated client node with a pending insert op
// that tests feed receipts into directly.
type receiptRig struct {
	client  *Node
	holders []*seccrypt.Smartcard
	cert    wire.FileCertificate
	results []InsertResult
}

const rigReqID = 77

// newReceiptRig builds a 4-node cluster and registers a pending k=2
// insert at node 0. corruptCert simulates a defective card.
func newReceiptRig(t *testing.T, corruptCert bool) *receiptRig {
	t.Helper()
	broker, err := seccrypt.NewBroker(seccrypt.DetRand(1))
	if err != nil {
		t.Fatal(err)
	}
	cards := make([]*seccrypt.Smartcard, 4)
	for i := range cards {
		if cards[i], err = broker.IssueCard(1<<30, 1<<20, 0, seccrypt.DetRand(3+uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.FileDiversion = false // a retry would issue a fresh, valid certificate
	nodes := make([]*Node, len(cards))
	if _, err := cluster.Build(cluster.Options{
		N:      len(cards),
		Pastry: pastry.DefaultConfig(),
		Seed:   1,
		NodeID: func(i int) id.Node { return cards[i].NodeID() },
		AppFactory: func(i int, nd *pastry.Node, _ *simnet.Endpoint) pastry.App {
			nodes[i] = NewNode(cfg, nd, cards[i], broker.PublicKey())
			return nodes[i]
		},
	}); err != nil {
		t.Fatal(err)
	}
	rig := &receiptRig{client: nodes[0], holders: cards[1:3]}
	rig.cert, err = cards[0].IssueFileCertificate(t.Name(), []byte("receipt-rig probe body"), 2, []byte{7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if corruptCert {
		rig.cert.Sig[5] ^= 0xff
	}
	rig.client.mu.Lock()
	rig.client.pending[rigReqID] = &pendingOp{
		kind:     opInsert,
		card:     cards[0],
		k:        2,
		cert:     rig.cert,
		seen:     map[id.Node]bool{},
		insertCB: func(r InsertResult) { rig.results = append(rig.results, r) },
	}
	rig.client.mu.Unlock()
	return rig
}

// receipt returns holder i's genuine receipt for the rig's insert.
func (rig *receiptRig) receipt(t *testing.T, i int) wire.StoreReceipt {
	t.Helper()
	r := wire.StoreReceipt{FileID: rig.cert.FileID, StoredBy: wire.NodeRef{ID: rig.holders[i].NodeID()}, Size: rig.cert.Size, ReqID: rigReqID}
	rig.holders[i].SignStoreReceipt(&r)
	if err := seccrypt.VerifyStoreReceipt(&r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFlushVerifRejectsBadCertificate pins the client's certificate
// verdict: when the insert's own certificate signature is invalid (a
// defective card), k structurally and cryptographically valid receipts
// must not complete the attempt — it fails as ErrRejected, and the
// genuine receipts are not blamed as forgeries.
func TestFlushVerifRejectsBadCertificate(t *testing.T) {
	rig := newReceiptRig(t, true)
	rig.client.clientCollectReceipt(rig.receipt(t, 0))
	rig.client.clientCollectReceipt(rig.receipt(t, 1))

	if len(rig.results) != 1 {
		t.Fatalf("insert callback fired %d times, want exactly once", len(rig.results))
	}
	if res := rig.results[0]; !errors.Is(res.Err, ErrRejected) {
		t.Fatalf("corrupted certificate completed the attempt: err=%v", res.Err)
	} else if len(res.Receipts) != 2 {
		t.Fatalf("receipts in result = %d, want 2 (receipts must not be blamed for the cert)", len(res.Receipts))
	}
	if got := rig.client.Stats().ForgedReceiptsDropped; got != 0 {
		t.Fatalf("ForgedReceiptsDropped = %d, want 0", got)
	}
	if op := rig.client.pending[rigReqID]; op != nil {
		t.Fatal("failed attempt still pending")
	}
}

// TestForgedReceiptDroppedOnArrival pins the eager receipt check: a
// receipt whose signature fails is counted the moment it arrives, never
// counts toward k, and does not take its node's slot, so the same
// node's genuine receipt still completes the insert.
func TestForgedReceiptDroppedOnArrival(t *testing.T) {
	rig := newReceiptRig(t, false)
	forged := rig.receipt(t, 0)
	forged.Sig = append([]byte(nil), forged.Sig...)
	forged.Sig[3] ^= 0x10
	rig.client.clientCollectReceipt(forged)
	if got := rig.client.Stats().ForgedReceiptsDropped; got != 1 {
		t.Fatalf("ForgedReceiptsDropped after forged receipt = %d, want 1", got)
	}
	rig.client.clientCollectReceipt(rig.receipt(t, 1))
	if len(rig.results) != 0 {
		t.Fatalf("insert completed with one genuine receipt of k=2: %+v", rig.results[0])
	}
	rig.client.clientCollectReceipt(rig.receipt(t, 0))
	if len(rig.results) != 1 || rig.results[0].Err != nil {
		t.Fatalf("insert did not complete on the forger's genuine receipt: %+v", rig.results)
	}
	if n := len(rig.results[0].Receipts); n != 2 {
		t.Fatalf("result carries %d receipts, want 2", n)
	}
	if got := rig.client.Stats().ForgedReceiptsDropped; got != 1 {
		t.Fatalf("ForgedReceiptsDropped = %d, want 1", got)
	}
}
