package malgraph

// Serve-path benchmarks: prove the two claims of the epoch/shard redesign.
//
// BenchmarkServe_ReadsDuringIngest measures the read latency of the epoch
// query surface (the exact work GET /api/v1/stats and /api/v1/node do)
// twice — against an idle pipeline and while a pusher goroutine keeps the
// ingest mutex hot (streaming feed batches and cycling full snapshot
// restores, each decoded off the lock and adopted under it). Before the epoch
// redesign these reads queued behind p.mu and the under-ingest p99 tracked
// batch apply time (tens of ms); with lock-free epoch loads it must stay
// within the same order of magnitude as idle.
//
// BenchmarkIngest_ShardedSpeedup times the same multi-ecosystem batch
// sequence through core.Engine.Ingest at GOMAXPROCS=1 versus all cores:
// the per-ecosystem shard planning is the parallel section, the sorted-eco
// graph commit the serial one. The determinism suites pin byte-equality of
// the two runs; this bench records the speedup the parallelism buys.
//
// scripts/bench.sh emits both into BENCH_serve.json; CI gates the
// read-p99-under-ingest ratio (with an absolute-latency escape hatch for
// sub-millisecond p99s, where CPU contention noise dominates) and a
// sharded-speedup floor that still passes on single-core runners.

import (
	"bytes"
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"malgraph/internal/core"
)

// sampleEpochReads performs stats+node epoch reads for at least minDur wall
// time and at least minSamples reads, returning the p50/p99 latency.
func sampleEpochReads(p *Pipeline, probe string, minDur time.Duration, minSamples int) (p50, p99 time.Duration) {
	lat := make([]time.Duration, 0, 1<<16)
	deadline := time.Now().Add(minDur)
	for len(lat) < minSamples || time.Now().Before(deadline) {
		start := time.Now()
		ep := p.CurrentEpoch()
		_ = ep.Stats()
		_, _, _ = ep.Node(probe)
		lat = append(lat, time.Since(start))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)/2], lat[len(lat)*99/100]
}

func BenchmarkServe_ReadsDuringIngest(b *testing.B) {
	const (
		feedBatches = 16
		warmBatches = 2
		minSamples  = 512
		window      = 250 * time.Millisecond
	)
	p, err := NewStreamingPipeline(context.Background(), Config{Scale: benchScale()}, feedBatches)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the engine with a couple of batches so reads see a real graph,
	// then checkpoint: the pusher cycles back to this state whenever it
	// drains the feed, so ingest pressure is sustained for any -benchtime.
	for i := 0; i < warmBatches; i++ {
		if _, ok, err := p.AppendNext(); err != nil || !ok {
			b.Fatalf("warm append %d: ok=%v err=%v", i, ok, err)
		}
	}
	store := openStore(b, b.TempDir())
	p.AttachStore(store)
	var snap bytes.Buffer
	if err := p.SnapshotEngine(&snap); err != nil {
		b.Fatal(err)
	}
	ids := p.Engine.Graph().G.NodeIDs()
	if len(ids) == 0 {
		b.Fatal("empty warm graph")
	}
	sort.Strings(ids)
	probe := ids[len(ids)/2]

	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		idle50, idle99 := sampleEpochReads(p, probe, window, minSamples)

		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, ok, err := p.AppendNext(); err != nil {
					b.Error(err)
					return
				} else if !ok {
					// Feed drained: restore the warm checkpoint (manifest
					// and chunk decode, then the engine swap and publish
					// under p.mu) and re-drain.
					eng, stamps, err := core.RestoreEngineWithStore(bytes.NewReader(snap.Bytes()), store)
					if err != nil {
						b.Error(err)
						return
					}
					p.AdoptEngine(eng, stamps)
				}
			}
		}()
		busy50, busy99 := sampleEpochReads(p, probe, window, minSamples)
		stop.Store(true)
		wg.Wait()

		b.ReportMetric(float64(idle50), "read_idle_p50_ns")
		b.ReportMetric(float64(idle99), "read_idle_p99_ns")
		b.ReportMetric(float64(busy50), "read_ingest_p50_ns")
		b.ReportMetric(float64(busy99), "read_ingest_p99_ns")
		b.ReportMetric(float64(busy99)/float64(idle99), "read_p99_ratio")
	}
}

func BenchmarkIngest_ShardedSpeedup(b *testing.B) {
	p, err := NewStreamingPipeline(context.Background(), Config{Scale: benchScale()}, 1)
	if err != nil {
		b.Fatal(err)
	}
	ds, reportCorpus := p.Source()
	batches := BatchFeed(ds, reportCorpus, 4)
	ingest := func() time.Duration {
		eng := core.NewEngine(core.DefaultConfig())
		start := time.Now()
		for _, batch := range batches {
			if _, err := eng.Ingest(batch); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	ingest() // warm caches so the first timed run is not penalized
	procs := runtime.NumCPU()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		old := runtime.GOMAXPROCS(1)
		serial := ingest()
		runtime.GOMAXPROCS(procs)
		parallel := ingest()
		runtime.GOMAXPROCS(old)
		b.ReportMetric(float64(serial), "serial_ingest_ns")
		b.ReportMetric(float64(parallel), "parallel_ingest_ns")
		b.ReportMetric(float64(serial)/float64(parallel), "sharded_speedup")
	}
}
