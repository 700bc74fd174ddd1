package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
)

// TestSetConcurrentGetOrCreate verifies that racing GetOrCreate calls for
// the same topic agree on one cache, across many topics spread over the
// shards. Run under -race this exercises the sharded lock discipline.
func TestSetConcurrentGetOrCreate(t *testing.T) {
	s := NewSet()
	const topics = 200
	const racers = 4
	results := make([][]*Cache, racers)
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = make([]*Cache, topics)
			for i := 0; i < topics; i++ {
				j := i % 20
				topic := sensor.Topic(fmt.Sprintf("/r%d/n%d/power", j/10, j%10))
				results[g][i] = s.GetOrCreate(topic, 16, time.Second)
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < topics; i++ {
		for g := 1; g < racers; g++ {
			if results[g][i] != results[0][i] {
				t.Fatalf("topic %d: racer %d got a different cache", i, g)
			}
		}
	}
	if s.Len() != 20 { // 200 iterations over 20 distinct topics
		t.Fatalf("Len = %d, want 20", s.Len())
	}
}

// TestSetConcurrentStoreQueryTopics mixes the three operations that race
// in production: pusher sampling (Store), operator queries (Get) and
// discovery (Topics/Len), while caches are still being created.
func TestSetConcurrentStoreQueryTopics(t *testing.T) {
	s := NewSet()
	const n = 64
	topics := make([]sensor.Topic, n)
	for i := range topics {
		topics[i] = sensor.Topic(fmt.Sprintf("/rack/node%02d/power", i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Creators + writers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				topic := topics[(k+g)%n]
				c := s.GetOrCreate(topic, 32, time.Second)
				c.StoreBatch([]sensor.Reading{{Value: float64(k), Time: int64(k) * int64(time.Second)}})
				if c, ok := s.Get(topic); ok {
					c.StoreBatch([]sensor.Reading{{Value: float64(k), Time: int64(k+1) * int64(time.Second)}})
				}
			}
		}(g)
	}
	// Readers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]sensor.Reading, 0, 64)
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				if c, ok := s.Get(topics[(k+g)%n]); ok {
					buf = c.ViewRelative(10*time.Second, buf[:0])
					_, _ = c.Latest()
				}
			}
		}(g)
	}
	// Discovery.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := len(s.Topics()); got > n {
				t.Errorf("Topics returned %d, more than the %d ever created", got, n)
				return
			}
			_ = s.Len()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if got := s.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	if got := len(s.Topics()); got != n {
		t.Fatalf("Topics = %d, want %d", got, n)
	}
}

// TestSetShardDistribution guards against a degenerate hash: realistic
// component-path topics must spread over many shards, otherwise sharding
// buys nothing.
func TestSetShardDistribution(t *testing.T) {
	s := NewSet()
	used := map[*setShard]bool{}
	for r := 0; r < 12; r++ {
		for n := 0; n < 12; n++ {
			topic := sensor.Topic(fmt.Sprintf("/r%02d/n%02d/power", r, n))
			used[s.shard(topic)] = true
		}
	}
	if len(used) < setShards/2 {
		t.Fatalf("144 topics landed on only %d of %d shards", len(used), setShards)
	}
}
