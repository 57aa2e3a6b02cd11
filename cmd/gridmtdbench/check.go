package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
)

// gammaTol is the slack a selection's achieved γ may fall short of its
// threshold by (core.SelectConfig's default GammaTol).
const gammaTol = 2e-3

// volatileFields are the response fields that may differ between two
// answers to one request: where the answer came from and how long it took.
var volatileFields = []string{"source", "cache_hit", "elapsed_ms"}

// checker holds the first payload seen for every request key and checks
// every later answer against it. Safe for concurrent use.
type checker struct {
	mu   sync.Mutex
	refs map[string]map[string]json.RawMessage
}

func newChecker() *checker {
	return &checker{refs: map[string]map[string]json.RawMessage{}}
}

// answer is the served part of one response.
type answer struct {
	source    string
	elapsedMS float64
}

// check parses a response body for key. The first body seen for a key
// becomes its reference; a selection (gammaTh > 0) must reach γ ≥ γ_th −
// gammaTol there. Every later body must equal the reference field by field
// once volatileFields are removed. It returns the served part and a
// description of what is wrong, or "" when the body is right.
func (c *checker) check(key string, gammaTh float64, body []byte) (answer, string) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		return answer{}, fmt.Sprintf("%s: undecodable response: %v", key, err)
	}
	var a answer
	json.Unmarshal(fields["source"], &a.source)
	json.Unmarshal(fields["elapsed_ms"], &a.elapsedMS)
	for _, f := range volatileFields {
		delete(fields, f)
	}
	c.mu.Lock()
	ref, seen := c.refs[key]
	if !seen {
		c.refs[key] = fields
	}
	c.mu.Unlock()
	if !seen {
		if gammaTh > 0 {
			var g float64
			if err := json.Unmarshal(fields["gamma"], &g); err != nil || g < gammaTh-gammaTol {
				return a, fmt.Sprintf("%s: gamma %v below threshold %v", key, g, gammaTh)
			}
		}
		return a, ""
	}
	if len(fields) != len(ref) {
		return a, fmt.Sprintf("%s: %d fields, first answer had %d", key, len(fields), len(ref))
	}
	for k, v := range fields {
		if !bytes.Equal(v, ref[k]) {
			return a, fmt.Sprintf("%s: field %q differs from the first answer", key, k)
		}
	}
	return a, ""
}
