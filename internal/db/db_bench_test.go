package db

import (
	"fmt"
	"testing"
)

// benchUpdates builds n distinct single-set updates (the shape of the
// engine's fused green runs).
func benchUpdates(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = EncodeUpdate(Set(fmt.Sprintf("k%04d", i%256), "v"))
	}
	return out
}

// requireNoErrors fails the bench on the first apply error: a benchmark
// that keeps counting after an error measures the abort path, not the
// apply path.
func requireNoErrors(b *testing.B, errs []error) {
	b.Helper()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApply(b *testing.B) {
	d := New()
	updates := benchUpdates(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Apply(updates[i%len(updates)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyBatch64 applies 64 updates per operation under one lock
// acquisition; compare ns/op ÷ 64 against BenchmarkApply's ns/op for the
// per-update amortization.
func BenchmarkApplyBatch64(b *testing.B) {
	d := New()
	updates := benchUpdates(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requireNoErrors(b, d.ApplyBatch(updates))
	}
}

// BenchmarkDirtyReadDuringApply measures degraded-read latency while
// green batches apply in the background: each dirty read waits out at
// most one batch holding the write lock.
func BenchmarkDirtyReadDuringApply(b *testing.B) {
	d := New()
	if err := d.ApplyDirty(EncodeUpdate(Set("red", "r"))); err != nil {
		b.Fatal(err)
	}
	updates := benchUpdates(64)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				d.ApplyBatch(updates)
			}
		}
	}()
	q := Get("red")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.QueryDirty(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkApplyDirty10k measures one dirty update against a 10k-key
// green store. The seed implementation materialized a copy-on-write
// view of the entire database per dirty update under the green write
// lock (O(|db|), ~1.8 ms here); the staged overlay path is
// O(|update|) and never takes the green write lock.
func BenchmarkApplyDirty10k(b *testing.B) {
	d := New()
	batch := make([][]byte, 10000)
	for i := range batch {
		batch[i] = EncodeUpdate(Set(fmt.Sprintf("k%05d", i), "v"))
	}
	requireNoErrors(b, d.ApplyBatch(batch))
	u := EncodeUpdate(Set("red", "r"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.ApplyDirty(u); err != nil {
			b.Fatal(err)
		}
	}
}
