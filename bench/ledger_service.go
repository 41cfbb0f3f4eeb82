package main

// Direct-call measurements of the service tier: the cache and the
// station through their Go API, then a pre-filled mini tier for the
// coordinator's overhead over a bare station and for open-loop latency.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gpulat/internal/runner"
	"gpulat/internal/service"
)

func ledgerService(e *env, set func(string, float64)) error {
	dir, err := os.MkdirTemp(e.tmp, "ledger-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	n := 300
	if e.smoke {
		n = 24
	}
	ctx := context.Background()
	jobs := chaseJobs(subSeed(e.seed, streamLedger), 2*n)
	known, unknown := jobs[:n], jobs[n:]
	rs, err := (&runner.Runner{Workers: e.nproc}).Run(ctx, known)
	if err == nil {
		err = rs.Err()
	}
	if err != nil {
		return err
	}

	// The cache, one call at a time.
	cacheDir := filepath.Join(dir, "cache")
	cache, err := service.OpenCache(cacheDir, 0)
	if err != nil {
		return err
	}
	var putErr error
	puts := 0
	set("service.cache.put_us", 1000*msOf(n, func() {
		if err := cache.Put(known[puts], rs.Results[puts]); err != nil {
			putErr = err
		}
		puts++
	}))
	if putErr != nil {
		return putErr
	}
	hits, misses := 0, 0
	set("service.cache.get_hit_us", 1000*msOf(n, func() {
		if _, ok := cache.Get(known[hits%n].Key()); !ok {
			putErr = fmt.Errorf("ledger: cache lost %s", known[hits%n].Name())
		}
		hits++
	}))
	set("service.cache.get_miss_us", 1000*msOf(n, func() {
		if _, ok := cache.Get(unknown[misses%n].Key()); ok {
			putErr = fmt.Errorf("ledger: cache invented %s", unknown[misses%n].Name())
		}
		misses++
	}))
	if putErr != nil {
		return putErr
	}

	// The station: a submission that attaches to a known key, one the
	// cache answers, and one that has to simulate.
	st := service.NewStation(cache, service.StationConfig{})
	if _, err := st.Do(ctx, known[0]); err != nil {
		st.Close()
		return err
	}
	var subErr error
	submit := func(job runner.Job) {
		if _, _, err := st.Submit(ctx, job); err != nil {
			subErr = err
		}
	}
	set("service.station.submit_dedup_us", 1000*msOf(n, func() { submit(known[0]) }))
	next := 1
	set("service.station.submit_cachehit_us", 1000*msOf(n-1, func() { submit(known[next]); next++ }))
	miss := 0
	set("service.station.do_miss_ms", msOf(min(n, 40), func() {
		if _, err := st.Do(ctx, unknown[miss]); err != nil {
			subErr = err
		}
		miss++
	}))
	st.Close()
	if subErr != nil {
		return subErr
	}

	// Coordinator overhead: the same pre-filled cache served by a bare
	// station and by a coordinator in front of it; every key once (first
	// touch: a disk hit) and then once more (repeat: in-memory dedup).
	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer transport.CloseIdleConnections()
	var p50 [2][2]float64 // [coordinator][repeat]
	var hot *tier
	for c, coordinator := range []bool{false, true} {
		t, err := startTier([]string{cacheDir}, coordinator, tierOptions{})
		if err != nil {
			return err
		}
		for r := 0; r < 2; r++ {
			dr := drive(t.front, transport, known, e.clients, nil, noParent, "ledger", nil)
			if dr.failed > 0 {
				t.close()
				return fmt.Errorf("ledger: %d requests failed against the mini tier", dr.failed)
			}
			p50[c][r] = median(dr.latencyMS)
		}
		if coordinator {
			hot = t // every key is now a repeat: the open loop's steady state
		} else {
			t.close()
		}
	}
	defer hot.close()
	set("service.coord.overhead_ms.first", p50[1][0]-p50[0][0])
	set("service.coord.overhead_ms.repeat", p50[1][1]-p50[0][1])

	// Open loop: requests are due on a fixed schedule whether or not the
	// previous ones have completed, sent by at most `clients` goroutines,
	// and timed from the moment they were due, so a stall's cost to the
	// requests behind it counts.
	var late []float64
	for _, rate := range []int{500, 1000, 2000} {
		total := rate // one second of schedule
		if e.smoke {
			total = rate / 20
		}
		lat, l := openLoop(hot.front, transport, known, rate, total, e.clients)
		if len(lat) < total {
			return fmt.Errorf("ledger: open loop at %d/s: %d of %d requests failed", rate, total-len(lat), total)
		}
		set(fmt.Sprintf("service.open.p50_ms.r%d", rate), percentile(lat, 50))
		set(fmt.Sprintf("service.open.p95_ms.r%d", rate), percentile(lat, 95))
		late = append(late, l...)
	}
	set("service.open.gen_late_ms", median(late))
	return nil
}

// openLoop sends total requests at the given rate and returns, per
// verified request, the latency from its due time and how late it left.
func openLoop(front string, transport http.RoundTripper, jobs []runner.Job, rate, total, clients int) (latencyMS, lateMS []float64) {
	client := service.NewClient(front)
	client.HTTP = &http.Client{Transport: transport}
	interval := time.Second / time.Duration(rate)
	begin := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= total {
					return
				}
				due := begin.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				set, err := client.RunJobs(context.Background(), jobs[i%len(jobs):i%len(jobs)+1])
				done := time.Now()
				if err != nil || set.Results[0].Failed() {
					continue
				}
				mu.Lock()
				latencyMS = append(latencyMS, done.Sub(due).Seconds()*1000)
				lateMS = append(lateMS, sent.Sub(due).Seconds()*1000)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return latencyMS, lateMS
}
