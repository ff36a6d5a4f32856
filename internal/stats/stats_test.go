package stats

import (
	"strings"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.RegisterFunc("ns", func(emit func(string, int64)) { emit("z", 1) })
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if r.Render() != "" {
		t.Fatal("nil registry must render empty")
	}
}

func TestProvidersSnapshot(t *testing.T) {
	r := New()
	segs := int64(4)
	r.RegisterFunc("tcp", func(emit func(string, int64)) { emit("segs_sent", segs) })
	r.RegisterFunc("pkt", func(emit func(string, int64)) {
		emit("gets", 11)
		emit("puts", 10)
	})
	segs++ // providers are polled at Snapshot time, not at registration
	snap := r.Snapshot()
	want := map[string]int64{
		"tcp.segs_sent": 5,
		"pkt.gets":      11,
		"pkt.puts":      10,
	}
	if len(snap) != len(want) {
		t.Errorf("snapshot has %d metrics, want %d: %v", len(snap), len(want), snap)
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snapshot[%q] = %d, want %d", k, snap[k], v)
		}
	}
}

func TestRenderSortedDeterministic(t *testing.T) {
	r := New()
	r.RegisterFunc("b", func(emit func(string, int64)) { emit("two", 2) })
	r.RegisterFunc("a", func(emit func(string, int64)) { emit("one", 1) })
	out := r.Render()
	if strings.Index(out, "a.one") > strings.Index(out, "b.two") {
		t.Fatalf("render not sorted:\n%s", out)
	}
	if out != r.Render() {
		t.Fatal("render must be deterministic")
	}
}
