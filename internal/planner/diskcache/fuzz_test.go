package diskcache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDiskCacheEntry plants arbitrary bytes as the committed file of one
// key and requires that Get never panics and returns data only when the
// entry is an envelope for that key; that any other entry is deleted,
// counted as corrupt and served as a miss; and that a following Put+Get
// round-trips. Run it with
//
//	go test -fuzz FuzzDiskCacheEntry -fuzztime 20s ./internal/planner/diskcache
func FuzzDiskCacheEntry(f *testing.F) {
	const key = "select|ieee118|k"
	f.Fuzz(func(t *testing.T, entry []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, fileName(key))
		if err := os.WriteFile(path, entry, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		data, ok := c.Get(key)
		var env envelope
		valid := json.Unmarshal(entry, &env) == nil && env.Key == key && len(env.Data) > 0
		if ok != valid {
			t.Fatalf("Get served=%v for entry %q, envelope for the key=%v", ok, entry, valid)
		}
		st := c.Stats()
		if ok {
			if !bytes.Equal(data, env.Data) {
				t.Fatalf("Get returned %q, entry holds %q", data, env.Data)
			}
			if st.Corrupt != 0 || st.Hits != 1 {
				t.Fatalf("served entry counted %+v", st)
			}
		} else {
			if st.Corrupt != 1 || st.Misses != 1 || st.Entries != 0 {
				t.Fatalf("dropped entry counted %+v, want 1 corrupt miss and no entries", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("dropped entry still on disk (stat error %v)", err)
			}
		}
		payload := []byte(`{"case":"ieee118"}`)
		c.Put(key, payload)
		if got, ok := c.Get(key); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("Put+Get returned %q, %v; want %q", got, ok, payload)
		}
	})
}
