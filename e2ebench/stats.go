package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"past/internal/seccrypt"
)

// opStats collects one client's outcomes for one operation kind. Each
// client owns its own, so recording takes no lock; merge joins them after
// the clients have stopped.
type opStats struct {
	lat      []time.Duration // completed ops only
	sizes    []int64         // payload sizes of completed ops
	ok, fail int
	bytes    int64 // payload bytes of completed ops
}

func (s *opStats) done(lat time.Duration, size int64) {
	s.ok++
	s.lat = append(s.lat, lat)
	s.sizes = append(s.sizes, size)
	s.bytes += size
}

func (s *opStats) merge(o *opStats) {
	s.lat = append(s.lat, o.lat...)
	s.sizes = append(s.sizes, o.sizes...)
	s.ok += o.ok
	s.fail += o.fail
	s.bytes += o.bytes
}

// quantileMs returns the q-quantile of d in milliseconds (nearest rank on
// the sorted sample), or 0 for an empty sample.
func quantileMs(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / 1e6
}

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// procSnap is a process-wide counter snapshot taken at the edges of the
// timed phase; deltas between two snapshots give the per-op and per-second
// figures.
type procSnap struct {
	wall             time.Time
	cpu              time.Duration
	alloc, gcPauseNs uint64
	memoHit, memoMis uint64
	loBytes          uint64
}

func snapshot() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h, m := seccrypt.MemoStats()
	return procSnap{
		wall:      time.Now(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:     ms.TotalAlloc,
		gcPauseNs: ms.PauseTotalNs,
		memoHit:   h,
		memoMis:   m,
		loBytes:   loopbackTxBytes(),
	}
}

// loopbackTxBytes reads the bytes sent on the loopback interface from
// /proc/net/dev (0 where the file is unavailable).
func loopbackTxBytes() uint64 {
	f, err := os.Open("/proc/net/dev")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || strings.TrimSpace(name) != "lo" {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) < 9 {
			return 0
		}
		v, _ := strconv.ParseUint(fields[8], 10, 64) // tx bytes; malformed reads as 0
		return v
	}
	return 0
}

// rssMiB returns the process's resident set (VmRSS) in MiB.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// watchRSS samples the resident set every 10 ms until the returned stop
// function is called; stop returns the largest sample in MiB.
func watchRSS() (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		p := rssMiB()
		for {
			select {
			case <-done:
				peak <- max(p, rssMiB())
				return
			case <-t.C:
				p = max(p, rssMiB())
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// content returns the deterministic payload of file key with n bytes.
// The benchmark regenerates it to check read-back bytes, so no copy of
// the corpus is kept.
func content(seed int64, key uint64, n int64) []byte {
	b := make([]byte, n)
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ key*0xBF58476D1CE4E5B9
	for i := 0; i < len(b); i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(z >> (8 * j))
		}
	}
	return b
}
