package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"past/internal/seccrypt"
	"past/internal/storage"
	"past/internal/transport"
	"past/internal/wire"
)

// probe times n calls of f, records one span per call and stores the
// median in microseconds as layer[name].
func probe(tr *tracer, layer map[string]float64, name string, size int64, n int, f func(i int) error) error {
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := f(i)
		t1 := time.Now()
		tr.add("probe:"+name, t0, t1, -1, size, 0, false, err == nil)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		us = append(us, float64(t1.Sub(t0))/1e3)
	}
	layer[name] = medianF(us)
	return nil
}

// runProbes times single calls into the seccrypt, transport and storage
// layers through their public functions. Every signature check is on a
// fresh certificate or receipt, so the process-wide memo cannot serve it.
func runProbes(o options, tr *tracer, layer map[string]float64) error {
	broker, err := seccrypt.NewBroker(seccrypt.DetRand(uint64(o.seed) + 101))
	if err != nil {
		return err
	}
	card, err := broker.IssueCard(1<<50, 0, 0, seccrypt.DetRand(uint64(o.seed)+102))
	if err != nil {
		return err
	}
	const n, nBig = 400, 60
	now := time.Now().Unix()
	certs := make([]wire.FileCertificate, n)
	receipts := make([]wire.StoreReceipt, n)
	if err := probe(tr, layer, "seccrypt.issue_cert_us.8KiB", 8<<10, n, func(i int) (err error) {
		data := content(o.seed, 1<<40+uint64(i), 8<<10)
		certs[i], err = card.IssueFileCertificate(fmt.Sprintf("probe%d", i), data, 3, salt(uint64(i), 0), now)
		return err
	}); err != nil {
		return err
	}
	if err := probe(tr, layer, "seccrypt.verify_cert_us", 0, n, func(i int) error {
		return seccrypt.VerifyFileCertificate(broker.PublicKey(), &certs[i], now)
	}); err != nil {
		return err
	}
	if err := probe(tr, layer, "seccrypt.sign_receipt_us", 0, n, func(i int) error {
		receipts[i] = wire.StoreReceipt{FileID: certs[i].FileID, StoredBy: wire.NodeRef{ID: card.NodeID()}, Size: 8 << 10}
		card.SignStoreReceipt(&receipts[i])
		return nil
	}); err != nil {
		return err
	}
	if err := probe(tr, layer, "seccrypt.verify_receipt_us", 0, n, func(i int) error {
		return seccrypt.VerifyStoreReceipt(&receipts[i])
	}); err != nil {
		return err
	}

	// Two TCP endpoints on loopback: time one frame from Send on the
	// first until the second's handler fires.
	a, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	got := make(chan struct{}, 1)
	b.SetHandler(func(string, wire.Msg) { got <- struct{}{} })
	send := func(msg wire.Msg) error {
		if err := a.Send(b.Addr(), msg); err != nil {
			return err
		}
		select {
		case <-got:
			return nil
		case <-time.After(2 * time.Second):
			return fmt.Errorf("frame not delivered")
		}
	}
	for _, sz := range []struct {
		name string
		size int64
		n    int
	}{{"64B", 64, n}, {"4KiB", 4 << 10, n}, {"256KiB", 256 << 10, nBig}} {
		msg := wire.CacheCopy{Cert: certs[0], Data: make([]byte, sz.size)}
		for i := 0; i < 5; i++ { // dial and warm the connection
			if err := send(msg); err != nil {
				return err
			}
		}
		if err := probe(tr, layer, "transport.frame_rtt_us."+sz.name, sz.size, sz.n, func(int) error {
			return send(msg)
		}); err != nil {
			return err
		}
	}

	// Storage: the disk store's write + rename (no fsync) and the
	// in-memory store, each with a distinct file per call.
	dir := filepath.Join(o.buildDir, fmt.Sprintf("probe-%d", os.Getpid()))
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup inside the build directory
	ds, err := storage.OpenDiskStore(dir, 1<<40)
	if err != nil {
		return err
	}
	mem := storage.NewStore(1 << 40)
	for k, p := range []struct {
		name string
		size int64
		n    int
		put  func(storage.Item) error
	}{
		{"storage.disk_put_us.8KiB", 8 << 10, n, ds.Put},
		{"storage.disk_put_us.256KiB", 256 << 10, nBig, ds.Put},
		{"storage.mem_put_us.8KiB", 8 << 10, n, mem.Put},
	} {
		items := make([]storage.Item, p.n)
		for i := range items {
			c := certs[i]
			c.FileID[len(c.FileID)-1] = byte(k) // distinct file per probe and call
			c.Size = p.size
			items[i] = storage.Item{Cert: c, Data: content(o.seed, uint64(i), p.size)}
		}
		if err := probe(tr, layer, p.name, p.size, p.n, func(i int) error { return p.put(items[i]) }); err != nil {
			return err
		}
	}
	return nil
}
