package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"past"
	"past/internal/workload"
)

// simConfig is the sim-churn network: simulated nodes with keep-alives on,
// driven by one client because a Network is single-threaded.
var simConfig = struct {
	N, corpus, churnEvery, warmupOps, msgsPrefix, segments int
	KeepAlive, FailTimeout, maintenance                    time.Duration
	zipfS, insertMix                                       float64
}{
	N: 256, corpus: 500, churnEvery: 300, warmupOps: 200, msgsPrefix: 500, segments: 6,
	KeepAlive: time.Second, FailTimeout: 3 * time.Second, maintenance: 10 * time.Second,
	zipfS: 1.0001, insertMix: 0.1,
}

type simFile struct {
	key  uint64
	size int64
	node int
	id   past.FileID
}

// smallSize draws a small file's size: 2 to 6 KiB.
func smallSize(rng *rand.Rand) int64 { return 2<<10 + rng.Int63n(4<<10) }

type simRun struct {
	seed    int64
	nw      *past.Network
	corpus  []simFile
	rng     *rand.Rand
	zipf    *workload.Zipf
	key     uint64
	crashed []int
	acked   []simFile
	tr      *tracer
}

// buildSim is the timed set-up: build the network and preload the corpus.
func buildSim(seed int64) (*simRun, error) {
	sc := past.DefaultStorageConfig()
	sc.K = replicas
	nw, err := past.NewNetwork(past.NetworkConfig{
		N: simConfig.N, Seed: seed, Storage: sc,
		KeepAlive: simConfig.KeepAlive, FailTimeout: simConfig.FailTimeout,
	})
	if err != nil {
		return nil, err
	}
	w := &simRun{seed: seed, nw: nw, rng: rand.New(rand.NewSource(seed))}
	w.corpus = make([]simFile, simConfig.corpus)
	for i := range w.corpus {
		f := simFile{key: uint64(i), size: smallSize(w.rng), node: w.rng.Intn(simConfig.N)}
		res, err := nw.Insert(f.node, nil, fmt.Sprintf("f%d", f.key), content(seed, f.key, f.size), replicas)
		if err != nil {
			return nil, fmt.Errorf("preload %d: %w", i, err)
		}
		f.id = res.FileID
		w.corpus[i] = f
	}
	w.zipf = workload.NewZipf(seed, simConfig.zipfS, len(w.corpus))
	w.key = uint64(len(w.corpus))
	return w, nil
}

func (w *simRun) live() int {
	for {
		if i := w.rng.Intn(w.nw.Len()); !w.nw.Down(i) {
			return i
		}
	}
}

// churn crashes one live node, restarts the one crashed last time, and
// lets the network run its maintenance for a while of virtual time.
func (w *simRun) churn() {
	victim := w.live()
	w.nw.Crash(victim)
	if len(w.crashed) > 0 {
		w.nw.Restart(w.crashed[0])
		w.crashed = w.crashed[1:]
	}
	w.crashed = append(w.crashed, victim)
	w.nw.RunFor(simConfig.maintenance)
}

func (w *simRun) lookup(rec *clientRec, kind string, node int, f simFile, traced bool) {
	t0 := time.Now()
	res, err := w.nw.Lookup(node, f.id)
	t1 := time.Now()
	st := &rec.look[b2i(traced)]
	if traced {
		w.tr.add(kind, t0, t1, node, f.size, res.Hops, res.Cached, err == nil)
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
	if res.From.ID == w.nw.NodeRef(node).ID {
		rec.local++
	}
	if res.Cached {
		rec.cached++
	}
}

func (w *simRun) insert(rec *clientRec, node int, traced bool) {
	f := simFile{key: w.key, size: smallSize(w.rng), node: node}
	w.key++
	t0 := time.Now()
	res, err := w.nw.Insert(node, nil, fmt.Sprintf("f%d", f.key), content(w.seed, f.key, f.size), replicas)
	t1 := time.Now()
	st := &rec.ins[b2i(traced)]
	if traced {
		w.tr.add("insert", t0, t1, node, f.size, 0, false, err == nil)
	}
	if err != nil {
		rec.failed(st, "insert", err)
		return
	}
	if len(res.Receipts) < replicas {
		rec.mismatch++
		st.fail++
		return
	}
	st.done(t1.Sub(t0), f.size)
	rec.retries += res.Retries
	rec.diverted += res.Diverted
	rec.receipts += len(res.Receipts)
	f.id = res.FileID
	w.acked = append(w.acked, f)
	rec.acked = append(rec.acked, ackedFile{key: f.key, size: f.size, peer: node, id: f.id, receipts: res.Receipts})
}

// run issues ops while more(done) holds, done counting this call's ops;
// every churnEvery-th op overall is preceded by a churn event. It returns
// the overall op count, starting from n.
func (w *simRun) run(rec *clientRec, n int, start time.Time, more func(done int) bool) int {
	for done := 0; more(done); done++ {
		if n > 0 && n%simConfig.churnEvery == 0 {
			w.churn()
		}
		traced := w.tr != nil && (time.Since(start)/traceSlice)%2 == 1
		node := w.live()
		if w.rng.Float64() < simConfig.insertMix {
			w.insert(rec, node, traced)
		} else {
			w.lookup(rec, "lookup", node, w.corpus[w.zipf.Draw()], traced)
		}
		n++
	}
	return n
}

func runSim(o options, tr *tracer) (*measurement, error) {
	m := newMeasurement(tr)
	slice := o.seconds / time.Duration(simConfig.segments)
	for s := 0; s < simConfig.segments; s++ {
		if err := simSegment(segmentSeed(o.seed, s), m, slice); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// simSegment builds one network (the timed set-up), warms it up, runs one
// timed slice, then verifies receipts and reads every acknowledged file
// back through another live node.
func simSegment(seed int64, m *measurement, slice time.Duration) error {
	m.begin()
	defer m.end()
	t0 := time.Now()
	w, err := buildSim(seed)
	if err != nil {
		return err
	}
	m.cur.setupS = time.Since(t0).Seconds()
	maint := func() (msgs, size int64) {
		for i := 0; i < w.nw.Len(); i++ {
			st := w.nw.NodeStats(i)
			msgs += int64(st.MaintenanceMsgs)
			size += st.MaintenanceBytes
		}
		return msgs, size
	}

	// The warm-up is a fixed number of ops, so the timed slice of a seed
	// always starts from the same simulated state.
	warm := &clientRec{}
	n := w.run(warm, 0, time.Now(), func(done int) bool { return done < simConfig.warmupOps })
	w.tr = m.tr
	rec := &clientRec{}
	before, msgs0 := snapshot(), w.nw.Messages()
	maint0, maintB0 := maint()
	prefixMsgs, prefixOps := uint64(0), 0
	start := time.Now()
	stop := start.Add(slice)
	w.run(rec, n, start, func(done int) bool {
		if done <= simConfig.msgsPrefix {
			prefixMsgs, prefixOps = w.nw.Messages()-msgs0, done
		}
		return time.Now().Before(stop)
	})
	after, msgs1 := snapshot(), w.nw.Messages()
	maint1, maintB1 := maint()
	m.timed(rec, before, after)
	m.counts["sim_msgs"] += float64(msgs1 - msgs0)
	m.counts["sim_prefix_msgs"] += float64(prefixMsgs)
	m.counts["sim_prefix_ops"] += float64(prefixOps)
	m.counts["maint_msgs"] += float64(maint1 - maint0)
	m.counts["maint_bytes"] += float64(maintB1 - maintB0)

	back := &clientRec{}
	t0 = time.Now()
	for _, f := range w.acked {
		node := (f.node + 1 + int(f.key%uint64(w.nw.Len()-1))) % w.nw.Len()
		for w.nw.Down(node) || node == f.node {
			node = (node + 1) % w.nw.Len()
		}
		w.lookup(back, "readback", node, f, w.tr != nil)
	}
	m.readBack(back, time.Since(t0).Seconds(), warm.mismatch+badReceipts(append(warm.acked, rec.acked...), replicas))
	return nil
}
