package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"past"
	"past/internal/seccrypt"
	"past/internal/workload"
)

// The loopback cluster uses cmd/pastnode's shipped defaults (k, caching
// on, LeafSync, keep-alive and anti-entropy intervals) except for the leaf
// set, which sits below the peer count so routes take more than one hop,
// as in the paper's large networks. Only the capacity and caching differ
// by workload.
const (
	peers     = 32
	routingL  = 8
	replicas  = 3
	leafSync  = 4
	keepAlive = 5 * time.Second
	// clients is the closed loop's width: one blocking caller per core.
	clients = 2
	// convergeBound bounds the wait for every peer's leaf set to fill
	// after the joins; a cluster that misses it fails the run.
	convergeBound = 30 * time.Second
	// warmup runs the op stream untimed before the measured phase.
	warmup = 500 * time.Millisecond
	// traceSlice alternates traced and untraced slices of a traced run.
	traceSlice = 500 * time.Millisecond
)

type cluster struct {
	dir     string
	peers   []*past.Peer
	refs    []past.NodeRef
	joinMs  []float64
	leafMin int
}

// bootCluster starts the peers with disk stores of spec's capacity and
// caching under dir, bootstraps the first, joins the rest back to back
// through it (as daemons given one seed do), then polls KnownPeers until
// every leaf set is full.
func bootCluster(seed int64, spec realSpec, dir string) (*cluster, error) {
	broker, err := past.DeriveBroker(fmt.Sprintf("det:%d", seed+1))
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	for i := 0; i < peers; i++ {
		card, err := broker.IssueCard(1<<40, spec.capacity, 0, past.DetCardRand(seed, i))
		if err != nil {
			c.close()
			return nil, err
		}
		scfg := past.DefaultStorageConfig()
		scfg.K = replicas
		scfg.Capacity = spec.capacity
		scfg.Caching = !spec.noCaching
		scfg.AntiEntropyEvery = 10 * time.Second
		p, err := past.ListenPeer(past.PeerConfig{
			Card:        card,
			BrokerPub:   broker.PublicKey(),
			Storage:     scfg,
			DataDir:     filepath.Join(dir, fmt.Sprintf("peer%02d", i)),
			RoutingL:    routingL,
			KeepAlive:   keepAlive,
			FailTimeout: 3 * keepAlive,
			LeafSync:    leafSync,
			JoinTimeout: 5 * time.Second,
			Seed:        seed<<8 + int64(i) + 1,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.peers = append(c.peers, p)
		c.refs = append(c.refs, p.Ref())
	}
	c.peers[0].Bootstrap()
	seeds := []string{c.peers[0].Addr()}
	for i, p := range c.peers[1:] {
		t0 := time.Now()
		if err := p.JoinAny(seeds); err != nil {
			c.close()
			return nil, fmt.Errorf("peer %d join: %w", i+1, err)
		}
		c.joinMs = append(c.joinMs, float64(time.Since(t0))/1e6)
	}
	want := min(routingL, peers-1)
	stop := time.Now().Add(convergeBound)
	for {
		c.leafMin = want
		for _, p := range c.peers {
			c.leafMin = min(c.leafMin, p.KnownPeers())
		}
		if c.leafMin >= want {
			return c, nil
		}
		if time.Now().After(stop) {
			c.close()
			return nil, fmt.Errorf("membership did not converge within %v: a peer knows %d of %d leaf-set members",
				convergeBound, c.leafMin, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *cluster) close() {
	var wg sync.WaitGroup
	for _, p := range c.peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close() //nolint:errcheck // teardown; the data directory is removed next
		}()
	}
	wg.Wait()
	os.RemoveAll(c.dir) //nolint:errcheck // best-effort cleanup inside the build directory
}

func (c *cluster) sum(f func(*past.Peer) int64) int64 {
	var s int64
	for _, p := range c.peers {
		s += f(p)
	}
	return s
}

// diskBytes sums the sizes of the stores' files (payload plus certificate).
func diskBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck // a vanished file just counts 0
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// realOp is one generated operation. For an insert key names the content;
// for a lookup it indexes the preloaded corpus.
type realOp struct {
	insert bool
	peer   int
	key    uint64
	size   int64
}

// opSource hands out the seed's fixed op sequence to the clients in order.
type opSource struct {
	mu  sync.Mutex
	gen func() realOp
}

func (s *opSource) next() realOp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen()
}

type ackedFile struct {
	key      uint64
	size     int64
	peer     int
	id       past.FileID
	receipts []past.StoreReceipt
}

type corpusFile struct {
	key  uint64
	size int64
	id   past.FileID
}

// clientRec is one client's record of a phase; [1] holds ops issued in a
// traced slice, [0] the rest.
type clientRec struct {
	ins, look                   [2]opStats
	hops, local, cached         int
	retries, diverted, receipts int
	mismatch                    int
	acked                       []ackedFile
	errs                        map[string]int // failures by kind and error
}

func (r *clientRec) failed(st *opStats, kind string, err error) {
	st.fail++
	if r.errs == nil {
		r.errs = map[string]int{}
	}
	r.errs[kind+": "+err.Error()]++
}

func (r *clientRec) merge(o *clientRec) {
	for i := range r.ins {
		r.ins[i].merge(&o.ins[i])
		r.look[i].merge(&o.look[i])
	}
	r.hops += o.hops
	r.local += o.local
	r.cached += o.cached
	r.retries += o.retries
	r.diverted += o.diverted
	r.receipts += o.receipts
	r.mismatch += o.mismatch
	r.acked = append(r.acked, o.acked...)
	for e, n := range o.errs {
		if r.errs == nil {
			r.errs = map[string]int{}
		}
		r.errs[e] += n
	}
}

type realRun struct {
	seed   int64
	c      *cluster
	corpus []corpusFile
	tr     *tracer
}

func salt(key uint64, attempt int) []byte {
	var b [9]byte
	binary.BigEndian.PutUint64(b[:], key)
	b[8] = byte(attempt)
	return b[:]
}

// deadline bounds one operation on a file of size bytes through the *Ctx
// calls: 1 s plus 100 ms per MiB, over a hundred times the p99 of the
// small ops on a loaded 2-core machine, so a scheduling stall does not
// fail an op. An op that never completes (a frame over MaxFrame, a stuck
// insert) thus stalls its client for a bounded time.
func deadline(size int64) time.Duration {
	return time.Second + time.Duration(size)*100*time.Millisecond/(1<<20)
}

func (w *realRun) insert(rec *clientRec, op realOp, traced bool) {
	data := content(w.seed, op.key, op.size)
	ctx, cancel := context.WithTimeout(context.Background(), deadline(op.size))
	t0 := time.Now()
	res, err := w.c.peers[op.peer].InsertSaltedCtx(ctx, nil, fmt.Sprintf("f%d", op.key), data, replicas, salt(op.key, 0))
	t1 := time.Now()
	cancel()
	st := &rec.ins[b2i(traced)]
	if traced {
		w.tr.add("insert", t0, t1, op.peer, op.size, 0, false, err == nil)
	}
	if err != nil {
		kind := "insert"
		if op.size >= 8<<20 {
			kind = "insert of 8 MiB"
		}
		rec.failed(st, kind, err)
		return
	}
	if len(res.Receipts) < replicas {
		rec.mismatch++
		st.fail++
		return
	}
	st.done(t1.Sub(t0), op.size)
	rec.retries += res.Retries
	rec.diverted += res.Diverted
	rec.receipts += len(res.Receipts)
	rec.acked = append(rec.acked, ackedFile{key: op.key, size: op.size, peer: op.peer, id: res.FileID, receipts: res.Receipts})
}

func (w *realRun) lookup(rec *clientRec, kind string, peer int, f corpusFile, traced bool) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline(f.size))
	t0 := time.Now()
	res, err := w.c.peers[peer].LookupCtx(ctx, f.id)
	t1 := time.Now()
	cancel()
	st := &rec.look[b2i(traced)]
	if traced {
		w.tr.add(kind, t0, t1, peer, f.size, res.Hops, res.Cached, err == nil)
	}
	if err != nil {
		rec.failed(st, kind, err)
		return
	}
	if !bytes.Equal(res.Data, content(w.seed, f.key, f.size)) {
		rec.mismatch++
		st.fail++
		return
	}
	st.done(t1.Sub(t0), f.size)
	rec.hops += res.Hops
	if res.From.ID == w.c.refs[peer].ID {
		rec.local++
	}
	if res.Cached {
		rec.cached++
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// drive runs the closed loop: clients callers each issue the next op of src
// as soon as their previous one returns, until stop.
func (w *realRun) drive(src *opSource, start, stop time.Time) *clientRec {
	recs := make([]clientRec, clients)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func(rec *clientRec) {
			defer wg.Done()
			for time.Now().Before(stop) {
				op := src.next()
				traced := w.tr != nil && (time.Since(start)/traceSlice)%2 == 1
				if op.insert {
					w.insert(rec, op, traced)
				} else {
					w.lookup(rec, "lookup", op.peer, w.corpus[op.key], traced)
				}
			}
		}(&recs[i])
	}
	wg.Wait()
	for i := 1; i < len(recs); i++ {
		recs[0].merge(&recs[i])
	}
	return &recs[0]
}

// lookupCheck is one lookup of a known file from a given peer.
type lookupCheck struct {
	peer int
	f    corpusFile
}

// lookupAll runs the checks with clients concurrent callers and returns
// their merged record.
func (w *realRun) lookupAll(kind string, checks []lookupCheck, traced bool) *clientRec {
	recs := make([]clientRec, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func(rec *clientRec) {
			defer wg.Done()
			for j := next.Add(1) - 1; j < int64(len(checks)); j = next.Add(1) - 1 {
				w.lookup(rec, kind, checks[j].peer, checks[j].f, traced)
			}
		}(&recs[i])
	}
	wg.Wait()
	for i := 1; i < len(recs); i++ {
		recs[0].merge(&recs[i])
	}
	return &recs[0]
}

// readBack looks every acknowledged file up from a peer other than its
// inserter and compares the bytes.
func (w *realRun) readBack(files []ackedFile) (*clientRec, float64) {
	n := len(w.c.peers)
	checks := make([]lookupCheck, len(files))
	for j, a := range files {
		peer := (a.peer + 1 + int(a.key%uint64(n-1))) % n
		checks[j] = lookupCheck{peer, corpusFile{key: a.key, size: a.size, id: a.id}}
	}
	t0 := time.Now()
	rec := w.lookupAll("readback", checks, w.tr != nil)
	return rec, time.Since(t0).Seconds()
}

// badReceipts counts acknowledged inserts whose receipts do not prove k
// distinct verified replicas of the right file.
func badReceipts(files []ackedFile, k int) int {
	bad := 0
	for _, a := range files {
		holders := map[past.NodeID]bool{}
		for i := range a.receipts {
			r := &a.receipts[i]
			if r.FileID == a.id && seccrypt.VerifyStoreReceipt(r) == nil {
				holders[r.StoredBy.ID] = true
			}
		}
		if len(holders) < k {
			bad++
		}
	}
	return bad
}

// verifyPeers is how many peers verifyCorpus looks each file up from: the
// ones numerically closest to its key, a leaf set's worth.
const verifyPeers = routingL + 1

// verifyCorpus looks every preloaded file up from each of the verifyPeers
// peers closest to its key and compares the bytes. Those are the peers
// that deliver a lookup for the key to themselves when their leaf set is
// missing the file's holders, so any such hole that touches the corpus
// fails one of these lookups. It returns how many lookups failed and how
// many returned wrong bytes.
func (w *realRun) verifyCorpus() (failed, mismatched int) {
	var checks []lookupCheck
	order := make([]int, len(w.c.refs))
	for _, f := range w.corpus {
		key := f.id.Key()
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int {
			return key.Dist(w.c.refs[a].ID).Cmp(key.Dist(w.c.refs[b].ID))
		})
		for _, p := range order[:min(verifyPeers, len(order))] {
			checks = append(checks, lookupCheck{p, f})
		}
	}
	rec := w.lookupAll("verify", checks, false)
	return rec.look[0].fail - rec.mismatch, rec.mismatch
}

// preload inserts the lookup corpus with several concurrent loaders. A
// file whose insert fails is retried under a new salt, so a badly joined
// cluster costs set-up time rather than failing the run.
func (w *realRun) preload(files []corpusFile) error {
	const loaders = 8
	var next atomic.Int64
	errs := make(chan error, loaders)
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := next.Add(1) - 1; j < int64(len(files)); j = next.Add(1) - 1 {
				f := &files[j]
				peer := int(f.key % uint64(len(w.c.peers)))
				var res past.InsertResult
				var err error
				for attempt := 0; attempt < 5; attempt++ {
					ctx, cancel := context.WithTimeout(context.Background(), deadline(f.size))
					res, err = w.c.peers[peer].InsertSaltedCtx(ctx, nil, fmt.Sprintf("f%d", f.key),
						content(w.seed, f.key, f.size), replicas, salt(f.key, attempt))
					cancel()
					if err == nil {
						break
					}
				}
				if err != nil {
					errs <- fmt.Errorf("preload %d: %w", j, err)
					return
				}
				f.id = res.FileID
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// realSpec describes one loopback workload.
type realSpec struct {
	capacity  int64   // per peer
	noCaching bool    // turns pastnode's default caching off
	corpus    int     // files preloaded during set-up (0: none)
	lookupMix float64 // share of lookups in the op stream
	// sizes returns the file-size draw of a segment with the given seed
	// and op-stream generator.
	sizes func(seed int64, rng *rand.Rand) func() int64
	// segments is how many freshly booted clusters share the timed phase.
	segments int
}

var specs = map[string]realSpec{
	"archive-insert": {
		capacity: 256 << 20, // pastnode's default
		sizes:    func(seed int64, _ *rand.Rand) func() int64 { return workload.DefaultSizes(seed).Draw },
		segments: 10,
	},
	"lookup-uniform": {
		// Every lookup is routed to a replica holder: with caching on,
		// the access peer's cache serves about half the lookups by the
		// end of a slice, so the median would sit between a local hit
		// and a routed lookup. The busiest peer stores about twice the
		// mean, far below its capacity, so no replica is diverted.
		capacity:  4 << 20,
		noCaching: true,
		corpus:    500,
		lookupMix: 0.95,
		sizes:     func(_ int64, rng *rand.Rand) func() int64 { return func() int64 { return smallSize(rng) } },
		segments:  6,
	},
	"lookup-fill": {
		// lookup-uniform with caching on and 768 KiB per peer, so a
		// peer's cache (its free space) holds about a fifth of the corpus.
		// The inserts fill the busier peers' stores, and some of them
		// then never complete.
		capacity:  768 << 10,
		corpus:    500,
		lookupMix: 0.95,
		sizes:     func(_ int64, rng *rand.Rand) func() int64 { return func() int64 { return smallSize(rng) } },
		segments:  6,
	},
}

func runReal(o options, spec realSpec, tr *tracer) (*measurement, error) {
	m := newMeasurement(tr)
	m.lookupsFromReadback = spec.lookupMix == 0
	base := filepath.Join(o.buildDir, fmt.Sprintf("data-%s-%d-%d", o.workload, o.seed, os.Getpid()))
	defer os.RemoveAll(base) //nolint:errcheck // best-effort cleanup inside the build directory
	slice := o.seconds / time.Duration(spec.segments)
	for s := 0; s < spec.segments; s++ {
		if err := realSegment(segmentSeed(o.seed, s), spec, m, filepath.Join(base, fmt.Sprint(s)), slice); err != nil {
			return nil, err
		}
		// Each segment starts from a collected heap, so it does not pay
		// for the previous cluster's garbage.
		debug.FreeOSMemory()
	}
	return m, nil
}

// maxBoots bounds the clusters a segment boots before it gives up on
// getting one that serves its whole corpus.
const maxBoots = 5

// realSegment sets up one cluster (the timed set-up: boot, corpus preload
// and its verification), warms it up, runs one timed slice, then verifies
// receipts and reads every acknowledged file back.
//
// A cluster that cannot serve every preloaded file has a bad membership
// view (the join race recorded in ROADMAP.md). It is shut down and a new
// one, with new node identities, is booted in its place. The lost time
// counts in the segment's set-up time and the count in
// pastry.bad_view_boot_frac; the ops measured afterwards all run on a
// cluster whose view served the corpus.
func realSegment(seed int64, spec realSpec, m *measurement, dir string, slice time.Duration) error {
	m.begin()
	defer m.end()
	t0 := time.Now()
	rng := rand.New(rand.NewSource(seed))
	size := spec.sizes(seed, rng)
	w := &realRun{seed: seed}
	w.corpus = make([]corpusFile, spec.corpus)
	for i := range w.corpus {
		w.corpus[i] = corpusFile{key: uint64(i), size: size()}
	}
	var c *cluster
	for boot := 0; ; boot++ {
		var err error
		c, err = bootCluster(seed+int64(boot)<<32, spec, filepath.Join(dir, fmt.Sprint(boot)))
		if err != nil {
			return err
		}
		m.cur.boots++
		w.c = c
		if err := w.preload(w.corpus); err != nil {
			c.close()
			return err
		}
		failed, mismatched := w.verifyCorpus()
		m.mismatches += mismatched
		if failed == 0 {
			break
		}
		c.close()
		if boot+1 == maxBoots {
			return fmt.Errorf("%d clusters in a row failed to serve their preloaded corpus (%d lookups failed in the last)",
				maxBoots, failed)
		}
	}
	defer c.close()
	m.cur.setupS = time.Since(t0).Seconds()
	m.joinMs = append(m.joinMs, c.joinMs...)
	if m.leafMin < 0 || c.leafMin < m.leafMin {
		m.leafMin = c.leafMin
	}

	// The op stream: a fixed sequence per seed. Insert keys start past the
	// corpus so every inserted name is fresh.
	key := uint64(spec.corpus)
	src := &opSource{gen: func() realOp {
		op := realOp{peer: rng.Intn(peers)}
		if rng.Float64() < spec.lookupMix {
			op.key = uint64(rng.Intn(len(w.corpus)))
			return op
		}
		op.insert = true
		op.key = key
		key++
		op.size = size()
		return op
	}}
	counters := func() map[string]int64 {
		return map[string]int64{
			"dials":       c.sum(func(p *past.Peer) int64 { return p.TransportStats().Dials }),
			"maint_msgs":  c.sum(func(p *past.Peer) int64 { return int64(p.Stats().MaintenanceMsgs) }),
			"maint_bytes": c.sum(func(p *past.Peer) int64 { return p.Stats().MaintenanceBytes }),
			"disk_bytes":  diskBytes(dir),
		}
	}

	start := time.Now()
	warm := w.drive(src, start, start.Add(warmup))
	w.tr = m.tr
	c0, before := counters(), snapshot()
	start = time.Now()
	rec := w.drive(src, start, start.Add(slice))
	after, c1 := snapshot(), counters()
	m.timed(rec, before, after)
	for name, v := range c1 {
		m.counts[name] += float64(v - c0[name])
	}

	acked := append(warm.acked, rec.acked...)
	back, backS := w.readBack(acked)
	m.readBack(back, backS, warm.mismatch+badReceipts(acked, replicas))
	return nil
}
