package diskcache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridmtd/internal/metrics"
)

func open(t *testing.T, dir string, maxBytes int64) *Cache {
	t.Helper()
	c, err := Open(Config{Dir: dir, MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPutGetRoundTrip(t *testing.T) {
	c := open(t, t.TempDir(), 0)
	if _, ok := c.Get("k1"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("k1", []byte(`{"gamma":0.25}`))
	got, ok := c.Get("k1")
	if !ok || string(got) != `{"gamma":0.25}` {
		t.Fatalf("Get after Put = %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 write / 1 entry", st)
	}
}

// TestSurvivesReopen pins the restart contract: a second Cache over the
// same directory serves the first one's entries.
func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	c1 := open(t, dir, 0)
	c1.Put("select|ieee300|...", []byte(`{"gamma":0.0671}`))
	c2 := open(t, dir, 0)
	got, ok := c2.Get("select|ieee300|...")
	if !ok || string(got) != `{"gamma":0.0671}` {
		t.Fatalf("reopened cache: Get = %q, %v", got, ok)
	}
	if st := c2.Stats(); st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("reopened stats = %+v, want the persisted entry indexed", st)
	}
}

// TestCrashMidWriteLeavesOldEntryAndSweepsTemp simulates a crash between
// the temp-file write and the rename: the next Open must sweep the temp
// file, and the committed entry (if any) stays intact.
func TestCrashMidWriteLeavesOldEntryAndSweepsTemp(t *testing.T) {
	dir := t.TempDir()
	c1 := open(t, dir, 0)
	c1.Put("k", []byte(`{"v":1}`))
	// A "crashed" write: a temp file with partial content that never got
	// renamed (exactly what a kill mid-Put leaves behind).
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"crashed"), []byte(`{"key":"k","da`), 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := open(t, dir, 0)
	if got, ok := c2.Get("k"); !ok || string(got) != `{"v":1}` {
		t.Fatalf("committed entry lost after crash: %q, %v", got, ok)
	}
	left, err := filepath.Glob(filepath.Join(dir, tmpPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("temp files survived Open: %v", left)
	}
}

// TestCorruptEntrySkippedNotFatal pins the tolerance contract: a torn or
// garbage committed entry reads as a miss, is deleted, and is counted —
// and a re-Put repairs it.
func TestCorruptEntrySkippedNotFatal(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, 0)
	c.Put("k", []byte(`{"v":1}`))
	name := fileName("k")
	if err := os.WriteFile(filepath.Join(dir, name), []byte(`{"key":"k","data":{"v"`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Same process: the index still lists the entry, the read must detect
	// the corruption.
	if _, ok := c.Get("k"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
	}
	if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
		t.Error("corrupt entry not deleted")
	}
	// Fresh process over the same directory: a corrupt survivor must also
	// read as a miss, not a panic or error.
	if err := os.WriteFile(filepath.Join(dir, name), []byte(`garbage`), 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := open(t, dir, 0)
	if _, ok := c2.Get("k"); ok {
		t.Fatal("garbage entry served as a hit after reopen")
	}
	c2.Put("k", []byte(`{"v":2}`))
	if got, ok := c2.Get("k"); !ok || string(got) != `{"v":2}` {
		t.Fatalf("re-Put after corruption: %q, %v", got, ok)
	}
}

// TestKeyMismatchIsMiss pins the content-address verification: an entry
// whose stored key differs from the requested one (collision, or a file
// copied between registry builds) is dropped.
func TestKeyMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, 0)
	c.Put("other-key", []byte(`{"v":1}`))
	// Plant other-key's envelope under k's filename.
	src, _ := os.ReadFile(filepath.Join(dir, fileName("other-key")))
	if err := os.WriteFile(filepath.Join(dir, fileName("k")), src, 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := open(t, dir, 0)
	if _, ok := c2.Get("k"); ok {
		t.Fatal("entry with mismatched key served as a hit")
	}
	if st := c2.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
	}
}

// TestLRUSizeCap pins the byte cap: oldest-accessed entries are evicted
// first, both within a process and at Open time.
func TestLRUSizeCap(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"pad":"` + strings.Repeat("x", 100) + `"}`)
	env := len(payload) + len(`{"key":"k00","data":}`)
	c := open(t, dir, int64(3*env+env/2)) // room for ~3 entries
	for i := 0; i < 6; i++ {
		c.Put(fmt.Sprintf("k%02d", i), payload)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under the cap: %+v", st)
	}
	if st.Bytes > int64(3*env+env/2) {
		t.Errorf("resident bytes %d exceed the cap", st.Bytes)
	}
	if _, ok := c.Get("k00"); ok {
		t.Error("oldest entry survived the cap")
	}
	if _, ok := c.Get("k05"); !ok {
		t.Error("newest entry evicted")
	}
	// Reopen with a tighter cap: Open itself must evict down to the cap.
	c2 := open(t, dir, int64(env+env/2))
	if st := c2.Stats(); st.Bytes > int64(env+env/2) || st.Entries > 2 {
		t.Errorf("reopen did not enforce the cap: %+v", st)
	}
}

// TestNilCacheIsNoOp pins the disabled path: a nil *Cache (no -disk-cache
// flag) answers misses and swallows writes.
func TestNilCacheIsNoOp(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("k"); ok {
		t.Error("nil cache hit")
	}
	c.Put("k", []byte(`{}`)) // must not panic
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil cache stats = %+v", st)
	}
}

// TestStatsDelta pins the Delta convention: counters difference, gauges
// copy.
func TestStatsDelta(t *testing.T) {
	a := Stats{Hits: 2, Misses: 3, Writes: 4, Evictions: 1, Corrupt: 1, Errors: 0, Entries: 7, Bytes: 700}
	b := Stats{Hits: 5, Misses: 4, Writes: 6, Evictions: 2, Corrupt: 1, Errors: 1, Entries: 9, Bytes: 900}
	d := metrics.Delta(b, a)
	want := Stats{Hits: 3, Misses: 1, Writes: 2, Evictions: 1, Corrupt: 0, Errors: 1, Entries: 9, Bytes: 900}
	if d != want {
		t.Errorf("Delta = %+v, want %+v", d, want)
	}
}
