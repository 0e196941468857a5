package repro

// Serving-layer benchmarks: concurrent read throughput of the Engine
// facade. BenchmarkRecommendSerial is the single-goroutine baseline;
// BenchmarkRecommendParallel runs the same workload under b.RunParallel,
// so comparing ns/op across the two shows how reads scale with
// GOMAXPROCS now that the pool is lock-split. BenchmarkObserveParallel
// measures writer throughput when many goroutines feed the stream (the
// exclusive lock serializes them — the number quantifies that cost).

import (
	"sync"
	"sync/atomic"
	"testing"
)

var servingState struct {
	once sync.Once
	eng  *Engine
	test []Action
	now  Timestamp
}

func servingSetup(b *testing.B) {
	b.Helper()
	servingFixture()
	b.ResetTimer()
}

// servingFixture builds the shared serving fixture once: a default
// engine whose pools are warmed with half the test stream.
func servingFixture() {
	servingState.once.Do(func() {
		ds, err := GenerateDataset(DatasetOptions{Users: benchUsers, Seed: benchSeed})
		if err != nil {
			panic(err)
		}
		train, test, err := SplitDataset(ds, 0.9)
		if err != nil {
			panic(err)
		}
		opts := DefaultEngineOptions()
		opts.Train = train
		eng, err := NewEngine(ds, opts)
		if err != nil {
			panic(err)
		}
		// Warm the pools with half the test stream so Recommend has real
		// candidates to rank; the rest feeds the Observe benchmarks.
		half := len(test) / 2
		for _, a := range test[:half] {
			if err := eng.Observe(a.User, a.Tweet, a.Time); err != nil {
				panic(err)
			}
		}
		servingState.eng = eng
		servingState.test = test[half:]
		servingState.now = test[half].Time
	})
}

func BenchmarkRecommendSerial(b *testing.B) {
	servingSetup(b)
	eng, now := servingState.eng, servingState.now
	users := eng.Dataset().NumUsers()
	for i := 0; i < b.N; i++ {
		eng.Recommend(UserID(i%users), 10, now)
	}
}

func BenchmarkRecommendParallel(b *testing.B) {
	servingSetup(b)
	eng, now := servingState.eng, servingState.now
	users := eng.Dataset().NumUsers()
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		u := int(next.Add(1000003)) % users
		for pb.Next() {
			eng.Recommend(UserID(u), 10, now)
			u = (u + 13) % users
		}
	})
}

// Readers racing a live writer: the realistic serving mix. The writer
// goroutine streams actions for the whole benchmark; RunParallel times
// only the reads.
func BenchmarkRecommendParallelWithWriter(b *testing.B) {
	servingSetup(b)
	eng, now, test := servingState.eng, servingState.now, servingState.test
	users := eng.Dataset().NumUsers()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a := test[i%len(test)]
			if err := eng.Observe(a.User, a.Tweet, a.Time); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		u := int(next.Add(1000003)) % users
		for pb.Next() {
			eng.Recommend(UserID(u), 10, now)
			u = (u + 13) % users
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}

func BenchmarkObserveSerial(b *testing.B) {
	servingSetup(b)
	eng, test := servingState.eng, servingState.test
	for i := 0; i < b.N; i++ {
		a := test[i%len(test)]
		if err := eng.Observe(a.User, a.Tweet, a.Time); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObserveParallel(b *testing.B) {
	servingSetup(b)
	eng, test := servingState.eng, servingState.test
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			a := test[int(next.Add(1))%len(test)]
			if err := eng.Observe(a.User, a.Tweet, a.Time); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
