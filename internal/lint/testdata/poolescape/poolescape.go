// Fixture for the poolescape analyzer: every way pooled memory can
// outlive its acquiring call, plus the sanctioned copy-out patterns and
// the SubscribeLocal burst-handler contract.
package fixture

import "sync"

type wrap struct{ buf []byte }

var pool = sync.Pool{New: func() any { return &wrap{} }}

// get is a trivial pool accessor: its callers' values are pooled too.
func get() *wrap { return pool.Get().(*wrap) }

type holder struct{ kept *wrap }

var global *wrap

func leakField(h *holder) {
	w := get()
	h.kept = w // want "pooled value w stored into struct field kept"
	pool.Put(w)
}

func leakGlobal() {
	w := pool.Get().(*wrap)
	global = w // want "pooled value w stored into package variable global"
}

func leakAlias(h *holder) {
	w := get()
	alias := w
	h.kept = alias // want "pooled value alias stored into struct field kept"
}

func leakChan(ch chan *wrap) {
	w := get()
	ch <- w // want "pooled value w sent on a channel"
}

func leakReturn() *wrap {
	w := get()
	return w // want "pooled value w returned"
}

func leakGo() {
	w := get()
	go func() { // want "goroutine captures pooled value w"
		_ = w.buf
	}()
}

func leakGoArg(f func(*wrap)) {
	w := get()
	go f(w) // want "pooled value w passed to a goroutine"
}

func okCopyOut(dst []byte) []byte {
	w := get()
	dst = append(dst, w.buf...) // clean: element spread copies
	n := make([]byte, len(w.buf))
	copy(n, w.buf) // clean: copy copies
	pool.Put(w)
	return dst
}

func okScoped() int {
	w := get()
	defer pool.Put(w)
	return len(w.buf) // clean: len retains nothing
}

// The transport BurstHandler contract: the burst handed to a
// SubscribeLocal handler — the message slice and the readings in it — is
// connection-owned recycled memory.

type message struct{ Readings []int }

type bus struct{}

func (bus) SubscribeLocal(h func([]message)) {}

var keptReadings []int
var keptBurst []message

func leakHandler(b bus) {
	b.SubscribeLocal(func(ms []message) {
		keptBurst = ms // want "stored into package variable keptBurst"
		for _, m := range ms {
			keptReadings = m.Readings // want "stored into package variable keptReadings"
		}
	})
}

func leakHandlerIndexed(b bus) {
	b.SubscribeLocal(func(ms []message) {
		keptReadings = ms[0].Readings // want "stored into package variable keptReadings"
	})
}

func okHandler(b bus) {
	b.SubscribeLocal(func(ms []message) {
		for _, m := range ms {
			tmp := make([]int, len(m.Readings))
			copy(tmp, m.Readings) // clean: handler copies before retaining
			keptReadings = tmp
		}
	})
}
