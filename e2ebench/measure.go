package main

import (
	"fmt"
	"time"
)

// measurement gathers one run's raw figures. A run times its phase in
// segments, each on a freshly set-up system. Latency samples, op counts and
// layer counters are pooled over all segments. Set-up time, rates and CPU
// per op are taken per segment and reported as the median over segments,
// so one segment disturbed by a neighbour's burst or a badly joined cluster
// does not move them (its failures still count in ok_frac). Peak resident
// memory is the first segment's.
type measurement struct {
	segs     []segStat
	cur      segStat
	stopRSS  func() float64
	segStart time.Time
	joinMs   []float64
	leafMin  int

	phase  clientRec // ops of the timed slices
	back   clientRec // read-back of every acknowledged insert
	phaseS float64   // summed wall seconds of the timed slices
	// lookupsFromReadback takes the lookup figures from the read-back, for
	// a workload whose timed ops are all inserts.
	lookupsFromReadback bool

	proc   procSnap           // summed process counter deltas of the timed slices
	counts map[string]float64 // summed layer counter deltas of the timed slices
	// mismatches counts failed checks outside the two records: acknowledged
	// inserts without k verified receipts, wrong bytes during warm-up.
	mismatches int

	layer map[string]float64 // probe results and fixed per-run counts
	tr    *tracer
}

// segmentSeed derives segment s's inputs from the run's seed.
func segmentSeed(seed int64, s int) int64 { return seed*64 + int64(s) }

// segStat is one segment's figures.
type segStat struct {
	setupS, insRate, lookRate, backRate, mbPerS, cpuMsPerOp, rssMiB float64
	boots                                                           int // clusters booted, bad views included
}

func newMeasurement(tr *tracer) *measurement {
	m := &measurement{counts: map[string]float64{}, layer: map[string]float64{}, tr: tr}
	m.leafMin = -1
	return m
}

// begin starts a segment; its resident set is sampled until end.
func (m *measurement) begin() {
	m.stopRSS = watchRSS()
	m.segStart = time.Now()
}

func (m *measurement) end() {
	m.cur.rssMiB = m.stopRSS()
	c := m.cur
	boots := ""
	if c.boots > 1 {
		boots = fmt.Sprintf(" (%d clusters booted)", c.boots)
	}
	fmt.Printf("segment %d: %.1f s in all, set-up %.3f s%s, %.1f inserts/s, %.1f lookups/s, %.1f read-backs/s, %.3f ms CPU/op, %.1f MiB peak RSS\n",
		len(m.segs), time.Since(m.segStart).Seconds(), c.setupS, boots, c.insRate, c.lookRate, c.backRate, c.cpuMsPerOp, c.rssMiB)
	m.segs = append(m.segs, c)
	m.cur = segStat{}
}

// timed folds in one segment's timed slice.
func (m *measurement) timed(rec *clientRec, before, after procSnap) {
	secs := after.wall.Sub(before.wall).Seconds()
	ins, look := both(&rec.ins), both(&rec.look)
	m.cur.insRate = float64(ins.ok) / secs
	m.cur.lookRate = float64(look.ok) / secs
	m.cur.mbPerS = float64(ins.bytes+look.bytes) / 1e6 / secs
	m.cur.cpuMsPerOp = ratio(float64(after.cpu-before.cpu)/1e6, float64(ins.ok+look.ok))
	m.phase.merge(rec)
	m.phaseS += secs
	m.proc.cpu += after.cpu - before.cpu
	m.proc.alloc += after.alloc - before.alloc
	m.proc.gcPauseNs += after.gcPauseNs - before.gcPauseNs
	m.proc.memoHit += after.memoHit - before.memoHit
	m.proc.memoMis += after.memoMis - before.memoMis
	m.proc.loBytes += after.loBytes - before.loBytes
}

// readBack folds in one segment's read-back and its other failed checks.
func (m *measurement) readBack(rec *clientRec, seconds float64, mismatches int) {
	m.cur.backRate = float64(rec.look[0].ok+rec.look[1].ok) / seconds
	m.back.merge(rec)
	m.mismatches += mismatches
}

// segMedian is the median over segments of one figure.
func (m *measurement) segMedian(f func(segStat) float64) float64 {
	v := make([]float64, len(m.segs))
	for i, s := range m.segs {
		v[i] = f(s)
	}
	return medianF(v)
}

func both(s *[2]opStats) opStats {
	var o opStats
	o.merge(&s[0])
	o.merge(&s[1])
	return o
}

// lookups returns the ops the lookup figures describe and the record
// holding their routing counters.
func (m *measurement) lookups() (opStats, *clientRec) {
	if m.lookupsFromReadback {
		return both(&m.back.look), &m.back
	}
	return both(&m.phase.look), &m.phase
}

func (m *measurement) verdict() (attempted, failed, mismatches int) {
	for _, r := range []*clientRec{&m.phase, &m.back} {
		for i := range r.ins {
			attempted += r.ins[i].ok + r.ins[i].fail + r.look[i].ok + r.look[i].fail
			failed += r.ins[i].fail + r.look[i].fail
		}
		mismatches += r.mismatch
	}
	return attempted, failed, mismatches + m.mismatches
}

func (m *measurement) phaseOps() float64 {
	ins, look := both(&m.phase.ins), both(&m.phase.look)
	return float64(ins.ok + look.ok)
}

func (m *measurement) endToEnd() map[string]float64 {
	ins := both(&m.phase.ins)
	lk, _ := m.lookups()
	lookRate := func(s segStat) float64 { return s.lookRate }
	if m.lookupsFromReadback {
		lookRate = func(s segStat) float64 { return s.backRate }
	}
	attempted, failed, _ := m.verdict()
	return map[string]float64{
		"setup_s":       m.segMedian(func(s segStat) float64 { return s.setupS }),
		"insert_ops_s":  m.segMedian(func(s segStat) float64 { return s.insRate }),
		"insert_p50_ms": quantileMs(ins.lat, 0.50),
		"lookup_ops_s":  m.segMedian(lookRate),
		"lookup_p50_ms": quantileMs(lk.lat, 0.50),
		"user_mb_s":     m.segMedian(func(s segStat) float64 { return s.mbPerS }),
		"ok_frac":       1 - ratio(float64(failed), float64(attempted)),
		"cpu_ms_per_op": m.segMedian(func(s segStat) float64 { return s.cpuMsPerOp }),
		// Later segments also hold memory of closed clusters that pending
		// request timers keep reachable for up to a request timeout, so
		// the first segment's peak is the one a long-lived process shows.
		"peak_rss_mb": m.segs[0].rssMiB,
	}
}

// perLayer completes the traced run's layer metrics: counter ratios,
// routing figures, the blocking-path budget and the tracing overhead.
func (m *measurement) perLayer(real bool) map[string]float64 {
	l := m.layer
	ops := m.phaseOps()
	ins := both(&m.phase.ins)
	lk, r := m.lookups()
	looked := float64(lk.ok)
	l["go.alloc_bytes_per_op"] = ratio(float64(m.proc.alloc), ops)
	l["go.gc_pause_ms_per_s"] = float64(m.proc.gcPauseNs) / 1e6 / m.phaseS
	l["seccrypt.memo_hit_frac"] = ratio(float64(m.proc.memoHit), float64(m.proc.memoHit+m.proc.memoMis))
	l["transport.lo_bytes_per_op"] = ratio(float64(m.proc.loBytes), ops)
	l["transport.dials_per_op"] = ratio(m.counts["dials"], ops)
	l["storage.disk_bytes_per_user_byte"] = ratio(m.counts["disk_bytes"], float64(ins.bytes))
	l["past.maint_msgs_per_op"] = ratio(m.counts["maint_msgs"], ops)
	l["past.maint_bytes_per_op"] = ratio(m.counts["maint_bytes"], ops)
	l["past.insert_retries_per_op"] = ratio(float64(m.phase.retries), float64(ins.ok))
	l["past.diverted_frac"] = ratio(float64(m.phase.diverted), float64(m.phase.receipts))
	l["past.lookup_hops"] = ratio(float64(r.hops), looked)
	l["past.lookup_local_frac"] = ratio(float64(r.local), looked)
	l["past.cache_hit_frac"] = ratio(float64(r.cached), looked)
	l["pastry.join_ms_p50"] = medianF(m.joinMs)
	l["pastry.leafset_min"] = float64(max(m.leafMin, 0))
	boots := 0
	for _, sg := range m.segs {
		boots += sg.boots
	}
	if real {
		l["pastry.bad_view_boot_frac"] = ratio(float64(boots-len(m.segs)), float64(boots))
	}
	l["simnet.msgs_s"] = ratio(m.counts["sim_msgs"], m.phaseS)
	l["simnet.msgs_per_op"] = ratio(m.counts["sim_prefix_msgs"], m.counts["sim_prefix_ops"])
	l["tail.insert_p99_ms"] = quantileMs(ins.lat, 0.99)
	l["tail.lookup_p99_ms"] = quantileMs(lk.lat, 0.99)
	l["samples.insert"] = float64(len(ins.lat))
	l["samples.lookup"] = float64(len(lk.lat))

	// Blocking path: probe cost times the per-op count of each step. An
	// insert signs one certificate, and is verified, stored and receipted
	// k times; on the real stack it crosses hops + k frames. A lookup
	// verifies the certificate unless the memo serves it, and on the real
	// stack crosses hops small request frames plus one reply carrying the
	// file. The simulator has no frames and no disk.
	hops := l["past.lookup_hops"]
	insSize, lookSize := medianSize(ins.sizes), medianSize(lk.sizes)
	kf := float64(replicas)
	insUs := l["seccrypt.issue_cert_us.8KiB"] + kf*(l["seccrypt.verify_cert_us"]+l["seccrypt.sign_receipt_us"]+l["seccrypt.verify_receipt_us"])
	lookUs := (1 - l["seccrypt.memo_hit_frac"]) * l["seccrypt.verify_cert_us"]
	if real {
		insUs += kf*interp(insSize, 8<<10, l["storage.disk_put_us.8KiB"], 256<<10, l["storage.disk_put_us.256KiB"]) +
			(hops+kf)*frameUs(l, insSize)
		lookUs += hops*l["transport.frame_rtt_us.64B"] + frameUs(l, lookSize)
	} else {
		insUs += kf * l["storage.mem_put_us.8KiB"]
	}
	l["budget.insert_explained_frac"] = ratio(insUs/1e3, quantileMs(ins.lat, 0.5))
	l["budget.lookup_explained_frac"] = ratio(lookUs/1e3, quantileMs(lk.lat, 0.5))

	// Tracing overhead: median latency of the ops issued in traced slices
	// against those of the interleaved untraced slices, for the workload's
	// main operation.
	s := &m.phase.look
	if ins.ok > both(&m.phase.look).ok {
		s = &m.phase.ins
	}
	l["trace.overhead_p50_frac"] = ratio(quantileMs(s[1].lat, 0.5), quantileMs(s[0].lat, 0.5)) - 1
	return l
}

func medianSize(s []int64) float64 {
	v := make([]float64, len(s))
	for i, x := range s {
		v[i] = float64(x)
	}
	return medianF(v)
}

// interp interpolates linearly through (x0,y0) and (x1,y1).
func interp(x, x0, y0, x1, y1 float64) float64 {
	return y0 + (x-x0)*(y1-y0)/(x1-x0)
}

// frameUs is the one-frame time at size bytes, interpolated between the
// probed frame sizes.
func frameUs(l map[string]float64, size float64) float64 {
	if size <= 4<<10 {
		return interp(size, 64, l["transport.frame_rtt_us.64B"], 4<<10, l["transport.frame_rtt_us.4KiB"])
	}
	return interp(size, 4<<10, l["transport.frame_rtt_us.4KiB"], 256<<10, l["transport.frame_rtt_us.256KiB"])
}
