package learner

import (
	"fmt"
	"sync"
	"testing"
)

// TestBufferConcurrentAdd hammers the buffer from parallel writers (run
// under -race in CI) and checks that dedup and totals survive.
func TestBufferConcurrentAdd(t *testing.T) {
	b := NewBuffer()
	const writers = 8
	const perWriter = 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Distinct queries per writer plus a shared query where every
				// writer races to insert the same ICPs.
				b.Add(eval(fmt.Sprintf("w%d-q%d", w, i), i%3, 100+float64(i), false))
				b.Add(eval("shared", i%3, 50, false))
			}
		}(w)
	}
	wg.Wait()

	// Each writer contributed perWriter distinct (qid, step-ICP) plans; the
	// shared query dedups to the 3 distinct ICPs (steps 0,1,2).
	want := writers*perWriter + 3
	if got := b.Size(); got != want {
		t.Fatalf("buffer size %d, want %d", got, want)
	}
	if refs := b.Refs("shared"); len(refs) != 3 {
		t.Fatalf("refs on shared query: %d", len(refs))
	}
}

// TestBufferConcurrentReaders mixes readers and writers.
func TestBufferConcurrentReaders(t *testing.T) {
	b := NewBuffer()
	b.Add(eval("q", 0, 100, false))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				switch i % 4 {
				case 0:
					b.Add(eval("q", 1+i%5, 90-float64(i%5), false))
				case 1:
					b.Size()
				case 2:
					b.Refs("q")
				case 3:
					b.Samples(3)
				}
			}
		}(w)
	}
	wg.Wait()
	// Refs is nil once the step-0 plan it is anchored on is gone.
	if b.Refs("q") == nil {
		t.Fatal("original lost")
	}
}
