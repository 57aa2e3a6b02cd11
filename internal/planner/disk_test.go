package planner

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gridmtd/internal/grid"
	"gridmtd/internal/planner/diskcache"
)

func openDisk(t *testing.T, dir string) *diskcache.Cache {
	t.Helper()
	d, err := diskcache.Open(diskcache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiskCacheServesAcrossRestart pins the persistence contract: a fresh
// planner over the same cache directory (a "restarted daemon") serves a
// previously computed selection from disk — same numbers, microsecond
// class, no search — and the response says so (source=disk, cache_hit).
func TestDiskCacheServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	p1 := New(Config{Disk: openDisk(t, dir)})
	req := quickSelect(0.1)
	first, err := p1.Select(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != SourceComputed {
		t.Fatalf("first request source %q, want computed", first.Source)
	}
	if st := p1.Stats(); st.Disk.Writes != 1 {
		t.Fatalf("disk writes = %d after one computed select, want 1", st.Disk.Writes)
	}

	// "Restart": a fresh planner (empty memo, fresh runner) over the same
	// directory.
	p2 := New(Config{Disk: openDisk(t, dir)})
	start := time.Now()
	second, err := p2.Select(req)
	warm := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != SourceDisk || !second.CacheHit {
		t.Fatalf("restarted planner served source=%q cache_hit=%v, want disk hit", second.Source, second.CacheHit)
	}
	f, s := *first, *second
	f.CacheHit, s.CacheHit = false, false
	f.Source, s.Source = "", ""
	f.ElapsedMS, s.ElapsedMS = 0, 0
	if !reflect.DeepEqual(f, s) {
		t.Errorf("disk-served response differs from the computed one:\n%+v\n%+v", f, s)
	}
	if warm > 50*time.Millisecond {
		t.Errorf("disk-served select took %v, want well under the compute time", warm)
	}
	if st := p2.Stats(); st.Disk.Hits != 1 {
		t.Errorf("disk hits = %d, want 1", st.Disk.Hits)
	}
	// Within the restarted process the memo now answers; disk is not
	// re-read.
	third, err := p2.Select(req)
	if err != nil {
		t.Fatal(err)
	}
	if third.Source != SourceMemo {
		t.Errorf("repeat in restarted process source %q, want memo", third.Source)
	}
}

// TestDiskCacheKeyedOnRegistryHash pins stale-cache safety: an entry
// stored under a different registry hash (simulating a cache directory
// carried across a registry edit) reads as a miss and is recomputed.
func TestDiskCacheKeyedOnRegistryHash(t *testing.T) {
	dir := t.TempDir()
	p1 := New(Config{Disk: openDisk(t, dir)})
	if _, err := p1.Gamma(GammaRequest{Case: "case4gs", XNew: []float64{0.1, 0.1, 0.1, 0.1}}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the registry suffix by renaming the entry to what a
	// different-registry key would hash to: simplest is to plant a file
	// that won't verify. Overwrite the sole entry with its own bytes under
	// a different name — key verification must reject it.
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("glob: %v, %d entries", err, len(entries))
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	os.Remove(entries[0])
	// A different logical key (different registry hash) hashes to a
	// different filename; planting the old envelope there must be detected
	// by the in-envelope key check.
	if err := os.WriteFile(filepath.Join(dir, "0000000000000000000000000000000000000000000000000000000000000000.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	p2 := New(Config{Disk: openDisk(t, dir)})
	resp, err := p2.Gamma(GammaRequest{Case: "case4gs", XNew: []float64{0.1, 0.1, 0.1, 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != SourceComputed {
		t.Errorf("request against a planted foreign entry served source %q, want recompute", resp.Source)
	}
}

// TestDiskCacheGammaAndPlacementDecode pins the per-endpoint decode
// seam: each memoized response kind round-trips through its disk entry
// into the right concrete type.
func TestDiskCacheGammaAndPlacementDecode(t *testing.T) {
	dir := t.TempDir()
	p1 := New(Config{Disk: openDisk(t, dir)})
	greq := GammaRequest{Case: "case4gs", XNew: []float64{0.1, 0.1, 0.1, 0.1}}
	g1, err := p1.Gamma(greq)
	if err != nil {
		t.Fatal(err)
	}
	p2 := New(Config{Disk: openDisk(t, dir)})
	g2, err := p2.Gamma(greq)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Source != SourceDisk || g2.Gamma != g1.Gamma {
		t.Errorf("gamma disk round-trip: source=%q γ=%v, want disk-served %v", g2.Source, g2.Gamma, g1.Gamma)
	}

	// An ieee118 request with both vectors: its key holds 372 hex-encoded
	// reactances, which must survive the envelope's JSON string.
	n, err := grid.CaseByName("ieee118")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	big := GammaRequest{Case: "ieee118", XOld: randomSetting(n, rng), XNew: randomSetting(n, rng)}
	b1, err := p1.Gamma(big)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := New(Config{Disk: openDisk(t, dir)}).Gamma(big)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Source != SourceComputed || b2.Source != SourceDisk || math.Float64bits(b2.Gamma) != math.Float64bits(b1.Gamma) {
		t.Errorf("ieee118 gamma disk round-trip: sources %q then %q, γ %v then %v; want computed, then the same bits from disk",
			b1.Source, b2.Source, b1.Gamma, b2.Gamma)
	}
}

// TestDiskCacheGammaKeyedOnKernel pins the γ kernel version in the disk
// key: an entry stored under the pre-version key (the same request, the
// same registry, an older γ pipeline) reads as a miss, is recomputed, and
// the recomputation is written under the current key for the next start.
func TestDiskCacheGammaKeyedOnKernel(t *testing.T) {
	dir := t.TempDir()
	req := GammaRequest{Case: "case4gs", XNew: []float64{0.1, 0.1, 0.1, 0.1}}
	stale, err := json.Marshal(&GammaResponse{Case: "case4gs", Gamma: 42})
	if err != nil {
		t.Fatal(err)
	}
	d := openDisk(t, dir)
	d.Put(req.key()+"|registry:"+grid.RegistryHash(), stale)

	p1 := New(Config{Disk: openDisk(t, dir)})
	first, err := p1.Gamma(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != SourceComputed || first.Gamma == 42 {
		t.Fatalf("old-key entry served: source=%q γ=%v, want a computation", first.Source, first.Gamma)
	}
	if st := p1.Stats(); st.Disk.Writes != 1 {
		t.Errorf("disk writes = %d after the recomputation, want 1", st.Disk.Writes)
	}

	p2 := New(Config{Disk: openDisk(t, dir)})
	second, err := p2.Gamma(req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != SourceDisk || second.Gamma != first.Gamma {
		t.Errorf("restart served source=%q γ=%v, want disk-served %v", second.Source, second.Gamma, first.Gamma)
	}
}

// TestDiskCacheEmptyPayloadRecomputed pins that a disk entry whose key
// verifies but whose payload names another case — null, {} or a foreign
// case — is never served: the planner recomputes and the write-through
// replaces the entry, which a restarted planner then serves.
func TestDiskCacheEmptyPayloadRecomputed(t *testing.T) {
	req := quickSelect(0.1).withDefaults()
	req.GammaBackend = "exact" // the memo key Select stores under
	ref, err := New(Config{}).Select(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range []string{`null`, `{}`, `{"case":"ieee57","gamma":1}`} {
		dir := t.TempDir()
		p0 := New(Config{})
		openDisk(t, dir).Put(p0.diskKey(req.key()), []byte(payload))
		p1 := New(Config{Disk: openDisk(t, dir)})
		first, err := p1.Select(req)
		if err != nil {
			t.Fatal(err)
		}
		if first.Source != SourceComputed || first.Case != "ieee14" || first.Gamma != ref.Gamma {
			t.Fatalf("payload %s: served source=%q case=%q γ=%v, want a computation of γ=%v",
				payload, first.Source, first.Case, first.Gamma, ref.Gamma)
		}
		second, err := New(Config{Disk: openDisk(t, dir)}).Select(req)
		if err != nil {
			t.Fatal(err)
		}
		if second.Source != SourceDisk || second.Gamma != ref.Gamma || second.CostPerHour != ref.CostPerHour {
			t.Errorf("payload %s: restart served source=%q γ=%v cost=%v, want the rewritten entry",
				payload, second.Source, second.Gamma, second.CostPerHour)
		}
	}
}

// TestDiskCachePipelineVersioned pins the pipeline version on every
// persisted entry kind: a select entry and a gamma entry stored under the
// keys the previous pipeline wrote (select| with no version, gamma| with
// kernel:engine-2) read as misses and are recomputed, not served.
func TestDiskCachePipelineVersioned(t *testing.T) {
	dir := t.TempDir()
	sel := quickSelect(0.1).withDefaults()
	sel.GammaBackend = "exact" // the memo key Select stores under
	gam := GammaRequest{Case: "case4gs", XNew: []float64{0.1, 0.1, 0.1, 0.1}}
	d := openDisk(t, dir)
	old := "|registry:" + grid.RegistryHash()
	d.Put(sel.key()+old, []byte(`{"case":"ieee14","gamma":42}`))
	d.Put(gam.key()+old+"|kernel:engine-2", []byte(`{"case":"case4gs","gamma":42}`))

	p := New(Config{Disk: openDisk(t, dir)})
	s, err := p.Select(sel)
	if err != nil {
		t.Fatal(err)
	}
	if s.Source != SourceComputed || s.Gamma == 42 {
		t.Errorf("old-pipeline select entry served: source=%q γ=%v", s.Source, s.Gamma)
	}
	g, err := p.Gamma(gam)
	if err != nil {
		t.Fatal(err)
	}
	if g.Source != SourceComputed || g.Gamma == 42 {
		t.Errorf("old-pipeline gamma entry served: source=%q γ=%v", g.Source, g.Gamma)
	}
}
