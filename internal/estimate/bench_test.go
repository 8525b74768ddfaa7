package estimate

import (
	"fmt"
	"testing"
)

// fillBucket observes n outcomes on k: every fourth fails, and exposures
// cycle through 1, 2, 3 when mixed, else stay 1.
func fillBucket(e *Estimator, k Key, n int, mixed bool) {
	for i := 0; i < n; i++ {
		x := 1.0
		if mixed {
			x = float64(1 + i%3)
		}
		e.Observe(Outcome{Provider: k.Provider, Context: k.Context, Failed: i%4 == 0, Exposure: x})
	}
}

// BenchmarkObserve ingests one outcome into an existing bucket, with and
// without a bound whose drift detector the outcome also feeds.
func BenchmarkObserve(b *testing.B) {
	for _, bound := range []bool{false, true} {
		b.Run(fmt.Sprintf("bound=%v", bound), func(b *testing.B) {
			e, err := New(Config{Window: 64})
			if err != nil {
				b.Fatal(err)
			}
			k := Key{Provider: "net12", Context: "search"}
			if bound {
				if err := e.SetBound(k, 0.25); err != nil {
					b.Fatal(err)
				}
			}
			fillBucket(e, k, 64, false)
			o := Outcome{Provider: k.Provider, Context: k.Context, Exposure: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Failed = i%4 == 0
				e.Observe(o)
			}
		})
	}
}

// BenchmarkEstimateFit fits a full window: the MLE bisection and the
// Fisher interval, at one exposure (a fixed-size request) and at three.
func BenchmarkEstimateFit(b *testing.B) {
	for _, window := range []int{64, 256} {
		for _, mixed := range []bool{false, true} {
			b.Run(fmt.Sprintf("window=%d/mixed=%v", window, mixed), func(b *testing.B) {
				e, err := New(Config{Window: window})
				if err != nil {
					b.Fatal(err)
				}
				k := Key{Provider: "net12", Context: "search"}
				fillBucket(e, k, window, mixed)
				if _, ok := e.Estimate(k); !ok { // sizes the fit's scratch
					b.Fatal("no estimate")
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := e.Estimate(k); !ok {
						b.Fatal("no estimate")
					}
				}
			})
		}
	}
}

// BenchmarkMergeCheckpoint folds a remote checkpoint of 1 or 64 full
// buckets into an estimator holding the same buckets with other
// evidence: the gossip receiver's per-rumor cost.
func BenchmarkMergeCheckpoint(b *testing.B) {
	for _, buckets := range []int{1, 64} {
		b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
			local, err := New(Config{Window: 64})
			if err != nil {
				b.Fatal(err)
			}
			remote, err := New(Config{Window: 64})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < buckets; i++ {
				k := Key{Provider: fmt.Sprintf("p%d", i), Context: "search"}
				fillBucket(local, k, 64, false)
				fillBucket(remote, k, 96, true)
			}
			cp := remote.Checkpoint()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := local.MergeCheckpoint(cp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
