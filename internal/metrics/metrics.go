// Package metrics holds the two generic operations every counter set of
// the reproduction shares: the field-wise difference of two snapshots and
// a process-wide accumulator. A counter set is a plain struct of integer
// fields (and nested counter sets), declared once with the JSON tags
// /v1/stats serves; nothing else lists its fields.
//
// A field tagged `metrics:"gauge"` is a current level, not a cumulative
// count: Delta copies it from the newer snapshot instead of differencing
// it. Add sums every field, gauges included; an owner that tracks a gauge
// elsewhere fills it in when it snapshots.
package metrics

import (
	"fmt"
	"reflect"
	"sync"
)

// Delta returns the counter increments now − since, field by field.
// Integer fields subtract, nested structs recurse and gauge fields copy
// the value from now. T must be a struct whose fields are all integers or
// such structs; any other field kind panics.
func Delta[T any](now, since T) T {
	var out T
	combine(reflect.ValueOf(&out).Elem(), reflect.ValueOf(now), reflect.ValueOf(since), -1)
	return out
}

// Sum is a concurrency-safe running total of a counter set: solvers and
// caches Add their increments, and a snapshot is Load. The zero value is
// an empty total.
type Sum[T any] struct {
	mu sync.Mutex
	v  T
}

// Add adds d to the total, field by field.
func (s *Sum[T]) Add(d T) {
	dv := reflect.ValueOf(d)
	s.mu.Lock()
	v := reflect.ValueOf(&s.v).Elem()
	combine(v, v, dv, 1)
	s.mu.Unlock()
}

// Load returns a snapshot of the total.
func (s *Sum[T]) Load() T {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.v
}

// combine sets out = a + sign·b field-wise. With sign −1 a gauge field
// takes a's value.
func combine(out, a, b reflect.Value, sign int64) {
	switch a.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		out.SetInt(a.Int() + sign*b.Int())
	case reflect.Struct:
		var gauge []bool
		if sign < 0 {
			gauge = gauges(a.Type())
		}
		for i := range a.NumField() {
			if gauge != nil && gauge[i] {
				out.Field(i).Set(a.Field(i))
				continue
			}
			combine(out.Field(i), a.Field(i), b.Field(i), sign)
		}
	default:
		panic(fmt.Sprintf("metrics: %s is not a counter field", a.Type()))
	}
}

// gaugeFields caches gauges per struct type: reading a field's tag
// through reflect copies the whole StructField, which would otherwise
// dominate a Delta.
var gaugeFields sync.Map // reflect.Type → []bool

// gauges reports, per field of the struct type t, whether it is tagged
// `metrics:"gauge"`.
func gauges(t reflect.Type) []bool {
	if g, ok := gaugeFields.Load(t); ok {
		return g.([]bool)
	}
	g := make([]bool, t.NumField())
	for i := range g {
		g[i] = t.Field(i).Tag.Get("metrics") == "gauge"
	}
	gaugeFields.Store(t, g)
	return g
}
