package rest

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/resultcache"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/tsdb"
)

// cachedStack is an in-memory serving stack with the result cache wired
// write-through: readings pushed through sink reach the store AND feed
// the cache's invalidation counters, exactly as in a Collect Agent.
type cachedStack struct {
	cached *httptest.Server // handler with the result cache
	plain  *httptest.Server // same engine, no cache: ground truth
	sink   *core.CacheSink
	rc     *resultcache.Cache
}

func newCachedStack(t *testing.T, ttl time.Duration) *cachedStack {
	t.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	st := store.New()
	rc := resultcache.New(256, ttl)
	sink := core.NewCacheSink(caches, nav, 16, time.Second)
	sink.Store = st
	sink.Results = rc
	qe := core.NewQueryEngine(nav, caches, st)
	m := core.NewManager(qe, sink, core.Env{})
	t.Cleanup(func() { m.Close() })
	cached := httptest.NewServer(NewHandler(m, qe, Options{ResultCache: rc}))
	t.Cleanup(cached.Close)
	plain := httptest.NewServer(NewHandler(m, qe))
	t.Cleanup(plain.Close)
	return &cachedStack{cached: cached, plain: plain, sink: sink, rc: rc}
}

// push delivers readings of /a through the sink as one batch, as one
// delivered publish would.
func (s *cachedStack) push(rs ...sensor.Reading) {
	s.sink.PushBurst([]store.Batch{{Topic: "/a", Readings: rs}}, nil)
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, sb.String()
}

// TestQueryCacheCoherence is the cached ≡ uncached property: with TTL
// zero, after every write batch a cached response must be byte-identical
// to the same request served without the cache — across plain
// aggregates, downsamples and raw ranges — while the hit counter proves
// the cached path actually served from memory between writes.
func TestQueryCacheCoherence(t *testing.T) {
	s := newCachedStack(t, 0)
	paths := []string{
		"/query?op=avg&sensor=/a&start=0&end=3600000000000",
		"/query?op=max&sensor=/a&start=0&end=3600000000000&step=1s",
		"/query?sensor=/a&from=0&to=3600000000000",
	}
	next := int64(0)
	for round := 0; round < 5; round++ {
		rs := make([]sensor.Reading, 7)
		for i := range rs {
			rs[i] = sensor.Reading{Value: float64(next), Time: next * int64(time.Second)}
			next++
		}
		s.push(rs...)
		for _, p := range paths {
			_, want := getBody(t, s.plain.URL+p)
			if _, got := getBody(t, s.cached.URL+p); got != want {
				t.Fatalf("round %d %s: cached fill diverged\n got: %swant: %s", round, p, got, want)
			}
			// No writes since: must be a hit AND still byte-identical.
			if _, got := getBody(t, s.cached.URL+p); got != want {
				t.Fatalf("round %d %s: cached hit diverged\n got: %swant: %s", round, p, got, want)
			}
		}
	}
	st := s.rc.Stats()
	if st.Hits == 0 {
		t.Fatalf("no cache hits recorded: %+v", st)
	}
	if st.Stale != 0 {
		t.Fatalf("strict cache served stale: %+v", st)
	}
}

// TestQueryCacheOpSharing locks the op-independent key: one cached
// window must answer every aggregation operator without extra fills.
func TestQueryCacheOpSharing(t *testing.T) {
	s := newCachedStack(t, 0)
	rs := make([]sensor.Reading, 10)
	for i := range rs {
		rs[i] = sensor.Reading{Value: float64(i), Time: int64(i) * int64(time.Second)}
	}
	s.push(rs...)
	for _, op := range []string{"avg", "min", "max", "sum", "count"} {
		p := "/query?op=" + op + "&sensor=/a&start=0&end=9000000000"
		_, want := getBody(t, s.plain.URL+p)
		if _, got := getBody(t, s.cached.URL+p); got != want {
			t.Fatalf("op %s: cached diverged\n got: %swant: %s", op, got, want)
		}
	}
	st := s.rc.Stats()
	// avg fills; min/max/sum/count all hit the same entry.
	if st.Hits < 4 {
		t.Fatalf("ops did not share one entry: %+v", st)
	}
}

// TestQueryCacheFrontierShortcut exercises the in-order ingest
// shortcut: writes strictly beyond a window's end keep its entry valid,
// while one out-of-order write into the window invalidates it.
func TestQueryCacheFrontierShortcut(t *testing.T) {
	s := newCachedStack(t, 0)
	rs := make([]sensor.Reading, 10)
	for i := range rs {
		rs[i] = sensor.Reading{Value: 1, Time: int64(i) * int64(time.Second)}
	}
	s.push(rs...)

	p := "/query?op=count&sensor=/a&start=0&end=9000000000"
	_, filled := getBody(t, s.cached.URL+p) // fill at frontier == window end
	before := s.rc.Stats()

	// In-order ingest past the window: entry must survive as a hit.
	// (Enough readings that the sensor cache rolls past the window start,
	// so any recompute below goes to the store.)
	for i := 20; i < 36; i++ {
		s.push(sensor.Reading{Value: 1, Time: int64(i) * int64(time.Second)})
	}
	if _, got := getBody(t, s.cached.URL+p); got != filled {
		t.Fatalf("in-order write beyond window changed response:\n got: %swas: %s", got, filled)
	}
	if st := s.rc.Stats(); st.Hits != before.Hits+1 {
		t.Fatalf("beyond-window write did not keep entry hot: before %+v after %+v", before, st)
	}

	// Out-of-order write INSIDE the window: must recompute.
	s.push(sensor.Reading{Value: 1, Time: 4500 * int64(time.Millisecond)})
	_, got := getBody(t, s.cached.URL+p)
	if got == filled {
		t.Fatalf("out-of-order write not reflected: %s", got)
	}
	var resp struct {
		Combined struct {
			Count int64 `json:"count"`
		} `json:"combined"`
	}
	if err := json.Unmarshal([]byte(got), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Combined.Count != 11 {
		t.Fatalf("combined count = %d, want 11", resp.Combined.Count)
	}
}

// TestQueryCacheStaleness pins the bounded-staleness knob from both
// sides: within the TTL a version-mismatched entry may serve the old
// answer; past the TTL it must not.
func TestQueryCacheStaleness(t *testing.T) {
	s := newCachedStack(t, 300*time.Millisecond)
	rs := make([]sensor.Reading, 10)
	for i := range rs {
		rs[i] = sensor.Reading{Value: 1, Time: int64(i) * int64(time.Second)}
	}
	s.push(rs...)

	p := "/query?op=count&sensor=/a&start=0&end=20000000000"
	_, filled := getBody(t, s.cached.URL+p)

	// A write into the window, then an immediate read: stale service is
	// allowed, but only the old or the new answer — never junk.
	s.push(sensor.Reading{Value: 1, Time: 10 * int64(time.Second)})
	_, within := getBody(t, s.cached.URL+p)
	if within != filled {
		t.Fatalf("within-TTL read is neither the stale nor original body: %s", within)
	}
	if st := s.rc.Stats(); st.Stale == 0 {
		t.Fatalf("expected a stale-served read: %+v", st)
	}

	// Past the TTL the bound kicks in: the new reading must appear.
	time.Sleep(600 * time.Millisecond)
	_, after := getBody(t, s.cached.URL+p)
	var resp struct {
		Combined struct {
			Count int64 `json:"count"`
		} `json:"combined"`
	}
	if err := json.Unmarshal([]byte(after), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Combined.Count != 11 {
		t.Fatalf("post-TTL count = %d, want 11 (staleness bound violated)", resp.Combined.Count)
	}
}

// TestQueryCacheConcurrentIngest races continuous in-order ingest and a
// background full-invalidation feed against cached reads of a fixed
// window. With TTL zero every served answer must reflect a prefix of
// the writes: the count for the window may only grow.
func TestQueryCacheConcurrentIngest(t *testing.T) {
	s := newCachedStack(t, 0)
	const total = 1500
	windowEnd := int64(total/2) * int64(time.Millisecond)
	p := fmt.Sprintf("/query?op=count&sensor=/a&start=0&end=%d", windowEnd)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			s.push(sensor.Reading{Value: 1, Time: int64(i) * int64(time.Millisecond)})
			if i%200 == 0 {
				s.rc.NotePrune() // full invalidation is always safe
			}
		}
		close(done)
	}()

	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(-1)
			for {
				select {
				case <-done:
					return
				default:
				}
				_, body := getBody(t, s.cached.URL+p)
				var resp struct {
					Combined struct {
						Count int64 `json:"count"`
					} `json:"combined"`
				}
				if err := json.Unmarshal([]byte(body), &resp); err != nil {
					t.Errorf("bad body: %v", err)
					return
				}
				if resp.Combined.Count < last {
					t.Errorf("served stale data under strict TTL: count %d after %d",
						resp.Combined.Count, last)
					return
				}
				last = resp.Combined.Count
			}
		}()
	}
	wg.Wait()

	// Quiescent: cached must equal ground truth exactly.
	_, want := getBody(t, s.plain.URL+p)
	if _, got := getBody(t, s.cached.URL+p); got != want {
		t.Fatalf("post-ingest divergence\n got: %swant: %s", got, want)
	}
}

// TestWildcardPruneGhosts is the ghost-topic regression: after
// retention removes every reading of a topic, '#' expansion — now
// backed by the store's topic index rather than the static navigator
// tree — must stop naming it.
func TestWildcardPruneGhosts(t *testing.T) {
	nav := navigator.New()
	caches := cache.NewSet()
	db, err := tsdb.Open(t.TempDir(), tsdb.Options{FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	old := func(topic sensor.Topic) {
		if err := nav.AddSensor(topic); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			db.InsertBatch(topic, []sensor.Reading{{Value: 1, Time: int64(i) * int64(time.Second)}})
		}
	}
	old("/r1/n0/power")
	old("/r1/n1/power")
	if err := nav.AddSensor("/r2/n0/power"); err != nil {
		t.Fatal(err)
	}
	recent := int64(time.Hour)
	db.InsertBatch("/r2/n0/power", []sensor.Reading{{Value: 7, Time: recent}})
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := db.Prune(30 * int64(time.Minute)); n == 0 {
		t.Fatal("prune removed nothing")
	}

	qe := core.NewQueryEngine(nav, caches, db)
	m := core.NewManager(qe, core.NewCacheSink(caches, nav, 16, time.Second), core.Env{})
	t.Cleanup(func() { m.Close() })
	srv := httptest.NewServer(NewHandler(m, qe))
	t.Cleanup(srv.Close)

	var got struct {
		Sensors []struct {
			Sensor string `json:"sensor"`
		} `json:"sensors"`
	}
	if code := getJSON(t, srv.URL+fmt.Sprintf("/query?op=count&sensor=/%%23&start=0&end=%d", 2*recent), &got); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(got.Sensors) != 1 || got.Sensors[0].Sensor != "/r2/n0/power" {
		t.Fatalf("wildcard expansion after prune = %+v, want only /r2/n0/power", got.Sensors)
	}
	// The fully-pruned subtree must 400 like any unmatched wildcard.
	if code := getJSON(t, srv.URL+"/query?op=count&sensor=/r1/%23&start=0&end=1", nil); code != 400 {
		t.Fatalf("pruned subtree wildcard status = %d, want 400", code)
	}
}

// TestRateLimit covers the serving-tier throttle: a client exhausting
// its burst gets 429 with a Retry-After hint and is admitted again once
// the bucket refills.
func TestRateLimit(t *testing.T) {
	nav := navigator.New()
	caches := cache.NewSet()
	qe := core.NewQueryEngine(nav, caches, nil)
	m := core.NewManager(qe, core.SinkFunc(func([]core.Output) {}), core.Env{})
	t.Cleanup(func() { m.Close() })
	srv := httptest.NewServer(NewHandler(m, qe, Options{RateLimit: 50, RateBurst: 3}))
	t.Cleanup(srv.Close)

	get := func() *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + "/plugins")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	limited := false
	for i := 0; i < 20; i++ {
		resp := get()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			limited = true
			secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || secs < 1 {
				t.Fatalf("Retry-After = %q", resp.Header.Get("Retry-After"))
			}
		default:
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}
	if !limited {
		t.Fatal("burst of 20 requests against burst=3 never rate-limited")
	}
	// Refill admits the client again.
	time.Sleep(60 * time.Millisecond)
	if resp := get(); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refill status = %d", resp.StatusCode)
	}
}

// TestRateLimitUnconfigured pins the default: no Options means no
// throttle, arbitrary bursts pass.
func TestRateLimitUnconfigured(t *testing.T) {
	srv, _ := newTestServer(t)
	for i := 0; i < 50; i++ {
		if code := getJSON(t, srv.URL+"/plugins", nil); code != 200 {
			t.Fatalf("request %d status = %d", i, code)
		}
	}
}
