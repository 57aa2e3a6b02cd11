// Package diskcache is the planner's persistent response cache: a
// directory of content-addressed JSON entries that survives daemon
// restarts, so a fresh process serves previously computed selections in
// microseconds instead of re-running sub-second searches.
//
// Design constraints, in order:
//
//   - Correctness across versions: an entry's filename is the SHA-256 of
//     its full logical key (the planner's memo key, kind|case|fields with
//     every float as the 16 hex digits of its bits, + the case registry
//     content hash), and the key is stored inside the entry and
//     re-verified on every read — a hash collision or a stale file from a
//     different registry build reads as a miss, never as a wrong answer.
//   - Crash safety: entries are written to a temp file in the cache
//     directory and atomically renamed into place. A crash mid-write
//     leaves only a temp file, which the next Open sweeps away; a torn or
//     corrupt entry is deleted and counted, never fatal.
//   - Bounded size: an in-memory LRU (loaded from file mtimes at Open,
//     maintained by access order afterwards) evicts the least recently
//     used entries when the byte cap is exceeded.
//
// The cache is safe for concurrent use by one process. It does not
// coordinate between processes; give each daemon its own directory (the
// sharding router already splits the keyspace, so shards never compete
// for entries).
package diskcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gridmtd/internal/metrics"
)

// tmpPrefix marks in-progress writes; Open removes any leftovers.
const tmpPrefix = "tmp-"

// entrySuffix is the filename suffix of committed entries.
const entrySuffix = ".json"

// Config tunes a Cache.
type Config struct {
	// Dir is the cache directory (created if absent).
	Dir string
	// MaxBytes caps the total size of committed entries (default 256 MiB).
	// Least-recently-used entries are evicted past the cap.
	MaxBytes int64
}

// Stats counts cache traffic. All counters are cumulative for the process
// (entries served from a previous process count as hits here).
type Stats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Writes int64 `json:"writes"`
	// Evictions counts entries removed by the LRU byte cap.
	Evictions int64 `json:"evictions"`
	// Corrupt counts unreadable entries (torn writes, bad JSON, key
	// mismatches) that were dropped and served as misses.
	Corrupt int64 `json:"corrupt"`
	// Errors counts I/O failures (failed writes, unreadable directory
	// entries); the cache degrades to a no-op rather than failing requests.
	Errors int64 `json:"errors"`
	// Entries and Bytes describe the current resident set.
	Entries int64 `json:"entries" metrics:"gauge"`
	Bytes   int64 `json:"bytes" metrics:"gauge"`
}

// envelope is the on-disk entry format: the full logical key for
// post-hash verification plus the cached JSON payload.
type envelope struct {
	Key  string          `json:"key"`
	Data json.RawMessage `json:"data"`
}

// Cache is a persistent, size-capped, LRU response cache.
type Cache struct {
	dir      string
	maxBytes int64

	// counts sums the traffic counters; the gauges are filled in by Stats.
	counts metrics.Sum[Stats]

	mu    sync.Mutex
	index map[string]*list.Element // filename -> lru node
	lru   *list.List               // front = most recently used
	bytes int64
}

// lruEntry is one committed file in the LRU index.
type lruEntry struct {
	name string
	size int64
}

// Open loads (or creates) the cache directory: leftover temp files from
// crashed writes are removed, committed entries are indexed
// least-recently-used first by mtime, and the byte cap is enforced
// immediately.
func Open(cfg Config) (*Cache, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("diskcache: empty directory")
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 256 << 20
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	c := &Cache{
		dir:      cfg.Dir,
		maxBytes: cfg.MaxBytes,
		index:    map[string]*list.Element{},
		lru:      list.New(),
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	type onDisk struct {
		name  string
		size  int64
		mtime time.Time
	}
	var found []onDisk
	for _, de := range entries {
		name := de.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			// A crash mid-write left this behind; the rename never happened,
			// so it is invisible to Get either way — sweep it.
			os.Remove(filepath.Join(cfg.Dir, name))
			continue
		}
		if !strings.HasSuffix(name, entrySuffix) || de.IsDir() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			c.counts.Add(Stats{Errors: 1})
			continue
		}
		found = append(found, onDisk{name, info.Size(), info.ModTime()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	for _, f := range found { // oldest first, so the newest end up at the front
		c.index[f.name] = c.lru.PushFront(lruEntry{f.name, f.size})
		c.bytes += f.size
	}
	c.mu.Lock()
	c.enforceCapLocked()
	c.mu.Unlock()
	return c, nil
}

// fileName maps a logical key to its content-addressed filename.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + entrySuffix
}

// Get returns the payload stored under key, or ok=false on a miss. A
// torn, corrupt or mismatched entry is deleted and reported as a miss.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	name := fileName(key)
	c.mu.Lock()
	el, ok := c.index[name]
	if ok {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.counts.Add(Stats{Misses: 1})
		return nil, false
	}
	raw, err := os.ReadFile(filepath.Join(c.dir, name))
	if err != nil {
		// Indexed but unreadable (evicted by a racing writer, torn disk):
		// drop it from the index and miss.
		c.dropEntry(name)
		c.counts.Add(Stats{Corrupt: 1, Misses: 1})
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Key != key || len(env.Data) == 0 {
		// Corrupt entry (partial write that still renamed, bit rot) or a
		// SHA-256 collision: delete, count, miss — never fatal, never wrong.
		c.removeFile(name)
		c.counts.Add(Stats{Corrupt: 1, Misses: 1})
		return nil, false
	}
	// Persist the access order across restarts (best effort): Open rebuilds
	// recency from mtimes.
	now := time.Now()
	os.Chtimes(filepath.Join(c.dir, name), now, now)
	c.counts.Add(Stats{Hits: 1})
	return env.Data, true
}

// Put stores payload under key: marshal the envelope, write to a temp
// file, fsync, and atomically rename into place. Failures are counted and
// swallowed — a broken disk degrades the cache, not the request.
func (c *Cache) Put(key string, payload []byte) {
	if c == nil {
		return
	}
	raw, err := json.Marshal(envelope{Key: key, Data: payload})
	if err != nil {
		c.counts.Add(Stats{Errors: 1})
		return
	}
	name := fileName(key)
	tmp, err := os.CreateTemp(c.dir, tmpPrefix+"*")
	if err != nil {
		c.counts.Add(Stats{Errors: 1})
		return
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(raw)
	if serr := tmp.Sync(); werr == nil {
		werr = serr
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmpName, filepath.Join(c.dir, name))
	}
	if werr != nil {
		os.Remove(tmpName)
		c.counts.Add(Stats{Errors: 1})
		return
	}
	c.counts.Add(Stats{Writes: 1})
	c.mu.Lock()
	if el, ok := c.index[name]; ok {
		c.bytes += int64(len(raw)) - el.Value.(lruEntry).size
		el.Value = lruEntry{name, int64(len(raw))}
		c.lru.MoveToFront(el)
	} else {
		c.index[name] = c.lru.PushFront(lruEntry{name, int64(len(raw))})
		c.bytes += int64(len(raw))
	}
	c.enforceCapLocked()
	c.mu.Unlock()
}

// enforceCapLocked evicts least-recently-used entries until the resident
// set fits the byte cap. Callers hold c.mu.
func (c *Cache) enforceCapLocked() {
	for c.bytes > c.maxBytes && c.lru.Len() > 0 {
		el := c.lru.Back()
		e := el.Value.(lruEntry)
		c.lru.Remove(el)
		delete(c.index, e.name)
		c.bytes -= e.size
		os.Remove(filepath.Join(c.dir, e.name))
		c.counts.Add(Stats{Evictions: 1})
	}
}

// dropEntry removes name from the in-memory index only.
func (c *Cache) dropEntry(name string) {
	c.mu.Lock()
	if el, ok := c.index[name]; ok {
		c.bytes -= el.Value.(lruEntry).size
		c.lru.Remove(el)
		delete(c.index, name)
	}
	c.mu.Unlock()
}

// removeFile removes name from the index and the directory.
func (c *Cache) removeFile(name string) {
	c.dropEntry(name)
	os.Remove(filepath.Join(c.dir, name))
}

// Stats returns a snapshot of the traffic counters and resident-set
// gauges.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	s := c.counts.Load()
	c.mu.Lock()
	s.Entries, s.Bytes = int64(c.lru.Len()), c.bytes
	c.mu.Unlock()
	return s
}
