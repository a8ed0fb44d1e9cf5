package experiment

import (
	"context"
	"runtime"
	"sync"
)

// DefaultParallelism is the worker count used when RunConfig.Parallelism
// is zero: one worker per schedulable CPU.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// ForEachIndex runs fn(0) .. fn(n-1) across a bounded worker pool of the
// given size (<= 0 means DefaultParallelism). Indices are claimed in
// ascending order, so results land in deterministic slots regardless of
// scheduling; every trial owns its testbed, DES environment, and seeded
// RNGs, which is what makes fanning them out safe.
//
// On the first error no new indices are started; trials already in flight
// run to completion and the error with the lowest index is returned — the
// same error serial execution would have reported when failures are a
// deterministic function of the index. Once ctx (nil = none) is done no new
// indices are claimed either, and — unless an earlier-indexed trial error
// takes precedence — the context's error is returned. Cancellation between
// trials is what lets a SIGINT-ed sweep stop at a journal-clean boundary.
func ForEachIndex(ctx context.Context, n, parallelism int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	canceled := func() bool { return ctx != nil && ctx.Err() != nil }
	p := parallelism
	if p <= 0 {
		p = DefaultParallelism()
	}
	if p > n {
		p = n
	}
	if p == 1 {
		for i := 0; i < n; i++ {
			if canceled() {
				return ctx.Err()
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		mu       sync.Mutex
		next     int
		firstErr error
		errIdx   int
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= n || canceled() {
			return -1
		}
		i := next
		next++
		return i
	}
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil || i < errIdx {
			firstErr, errIdx = err, i
		}
	}

	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i < 0 {
					return
				}
				if err := fn(i); err != nil {
					fail(i, err)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if canceled() {
		return ctx.Err()
	}
	return nil
}
