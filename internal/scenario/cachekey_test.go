package scenario

import (
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/resultcache"
)

// keyRecorder is a resultcache.Store that keeps nothing but the key of
// every Put, so a test can see exactly which content addresses a run
// writes.
type keyRecorder struct {
	mu   sync.Mutex
	keys []string
}

func (r *keyRecorder) Get(resultcache.Key) ([]byte, bool) { return nil, false }

func (r *keyRecorder) Put(key resultcache.Key, _ []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys = append(r.keys, key.String())
}

// cacheKeyScenarios are the scenarios whose cache keys the golden pins:
// one of every point shape (plain noc, windowed noc, trace replay,
// service, kernel).
var cacheKeyScenarios = []string{
	"../../examples/scenarios/smoke.json",
	"../../examples/scenarios/window-sweep.json",
	"../../examples/scenarios/trace-replay.json",
	"../../examples/scenarios/service-hotspot.json",
	"testdata/cachekeys-kernel.json",
}

// TestCacheKeysGolden pins the content address of every point the
// scenarios above write to the result cache. A key that moves orphans
// every disk cache filled before the change, so any refactor of the
// point paths must leave this golden untouched; a deliberate key change
// (or a resultcache.CodeVersion bump) regenerates it with
//
//	rm -rf /tmp/medea-keys && for f in examples/scenarios/{smoke,window-sweep,trace-replay,service-hotspot}.json internal/scenario/testdata/cachekeys-kernel.json; do go run ./cmd/medea-scenarios -cache disk -cache-dir /tmp/medea-keys "$f" >/dev/null; done && ls /tmp/medea-keys | sed 's/\.entry$//' | sort >internal/scenario/testdata/cachekeys.golden
func TestCacheKeysGolden(t *testing.T) {
	rec := &keyRecorder{}
	rc := resultcache.New(rec)
	for _, path := range cacheKeyScenarios {
		s, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		s.Cache = rc
		if _, err := RunCtx(t.Context(), s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	got := slices.Compact(slices.Sorted(slices.Values(rec.keys)))
	golden, err := os.ReadFile("testdata/cachekeys.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(golden))
	if !slices.Equal(got, want) {
		t.Errorf("result-cache keys drifted (%d keys, golden has %d): caches filled by earlier builds would all miss;\n"+
			"if the change is deliberate, regenerate testdata/cachekeys.golden with the command in TestCacheKeysGolden's comment\ngot:\n%s",
			len(got), len(want), strings.Join(got, "\n"))
	}
}
