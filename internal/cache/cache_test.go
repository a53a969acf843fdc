package cache

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"topocmp/internal/obs"
)

type payload struct {
	Name   string
	Values []float64
	N      int
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := payload{Name: "AS", Values: []float64{1.5, math.Pi, 1e-300, math.MaxFloat64}, N: 7}
	key := Key("set", "suite", "AS")
	if err := s.Put(key, in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if !s.Get(key, &out) {
		t.Fatal("expected hit after Put")
	}
	if out.Name != in.Name || out.N != in.N || len(out.Values) != len(in.Values) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	for i := range in.Values {
		// Bit-exact float round trip is what makes cached output
		// byte-identical to fresh output.
		if math.Float64bits(out.Values[i]) != math.Float64bits(in.Values[i]) {
			t.Fatalf("value %d: %x vs %x", i,
				math.Float64bits(out.Values[i]), math.Float64bits(in.Values[i]))
		}
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMissAndCorruptEntry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	key := Key("nothing")
	if s.Get(key, &out) {
		t.Fatal("unexpected hit")
	}
	// A truncated/corrupt entry reads as not-found but is distinguished
	// from a plain miss: counted as a decode error and evicted, so the
	// rebuilt entry can land cleanly.
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("not gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s.Get(key, &out) {
		t.Fatal("corrupt entry should read as not found")
	}
	if st := s.Stats(); st.Misses != 1 || st.DecodeErrors != 1 {
		t.Fatalf("stats = %+v, want 1 miss and 1 decode error", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not evicted: %v", err)
	}
	// The rebuild path: a fresh Put over the evicted slot hits cleanly.
	if err := s.Put(key, payload{Name: "rebuilt", N: 3}); err != nil {
		t.Fatal(err)
	}
	if !s.Get(key, &out) || out.Name != "rebuilt" {
		t.Fatalf("rebuild after eviction failed: %+v", out)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.DecodeErrors != 1 {
		t.Fatalf("stats after rebuild = %+v", st)
	}
}

// TestInstrumentSharesRegistry: an instrumented store reports its traffic
// through the run's metrics registry, and Stats() reads the same counters,
// so the manifest and the pipeline summary always reconcile.
func TestInstrumentSharesRegistry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Instrument(reg)
	key := Key("instrumented")
	var out payload
	s.Get(key, &out) // miss
	if err := s.Put(key, payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	s.Get(key, &out) // hit
	snap := reg.Snapshot()
	if snap.Counters["cache.misses"] != 1 || snap.Counters["cache.hits"] != 1 ||
		snap.Counters["cache.puts"] != 1 {
		t.Fatalf("registry counters = %+v", snap.Counters)
	}
	st := s.Stats()
	if st.Hits != snap.Counters["cache.hits"] || st.Misses != snap.Counters["cache.misses"] ||
		st.Puts != snap.Counters["cache.puts"] {
		t.Fatalf("Stats %+v does not reconcile with registry %+v", st, snap.Counters)
	}
	if snap.Histograms["cache.get"].Count != 2 || snap.Histograms["cache.put"].Count != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
}

func TestKeyDiscriminates(t *testing.T) {
	base := Key("a", "b")
	for name, k := range map[string]string{
		"different part":  Key("a", "c"),
		"split boundary":  Key("ab"),
		"reordered parts": Key("b", "a"),
		"extra part":      Key("a", "b", ""),
	} {
		if k == base {
			t.Errorf("%s: key collision", name)
		}
	}
	if Key("a", "b") != base {
		t.Error("key not deterministic")
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	var out payload
	if s.Get(Key("x"), &out) {
		t.Fatal("nil store hit")
	}
	if err := s.Put(Key("x"), payload{}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
}

// TestConcurrentAccess is the tier-2 race target for the store: many
// goroutines writing and reading overlapping keys must never observe a torn
// entry (atomic rename) or race on the counters.
func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := Key("shared", fmt.Sprint(i%5))
				in := payload{Name: "n", Values: []float64{float64(i)}, N: i % 5}
				if err := s.Put(key, in); err != nil {
					t.Error(err)
					return
				}
				var out payload
				if s.Get(key, &out) && len(out.Values) != 1 {
					t.Errorf("torn read: %+v", out)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// FuzzStoreGetCorrupt stores a fuzzed payload, then damages the entry on
// disk: it truncates it to cut bytes, or flips one bit. Get must either
// return the stored payload bit for bit, or miss, count a decode error and
// evict the entry. It must never return another value or panic.
func FuzzStoreGetCorrupt(f *testing.F) {
	f.Add("AS", []byte{1, 2, 3, 4, 5, 6, 7, 8}, 7, false, uint32(0))
	f.Add("", []byte{}, 0, true, uint32(9))
	f.Add("RL", []byte("0123456789abcdef"), -3, false, uint32(800))
	f.Fuzz(func(t *testing.T, name string, raw []byte, n int, truncate bool, at uint32) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		in := payload{Name: name, N: n}
		for i := 0; i+8 <= len(raw); i += 8 {
			in.Values = append(in.Values, math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
		}
		key := Key(name)
		if err := s.Put(key, in); err != nil {
			t.Fatal(err)
		}
		path := s.path(key)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if truncate {
			data = data[:int(at)%len(data)]
		} else {
			bit := int(at) % (8 * len(data))
			data[bit/8] ^= 1 << uint(bit%8)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out payload
		if s.Get(key, &out) {
			same := out.Name == in.Name && out.N == in.N && len(out.Values) == len(in.Values)
			for i := 0; same && i < len(in.Values); i++ {
				same = math.Float64bits(out.Values[i]) == math.Float64bits(in.Values[i])
			}
			if !same {
				t.Fatalf("damaged entry decoded to %+v, stored %+v", out, in)
			}
			return
		}
		if st := s.Stats(); st.DecodeErrors != 1 {
			t.Fatalf("damaged entry missed with stats %+v, want 1 decode error", st)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("damaged entry not evicted: %v", err)
		}
	})
}
