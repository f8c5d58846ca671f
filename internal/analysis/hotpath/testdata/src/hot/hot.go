// Package hot exercises the hot-path allocation rules.
package hot

import (
	"encoding/json"
	"fmt"
)

type table struct {
	idx map[string]int
}

// Exec is the annotated hot path.
//
//homeo:hotpath
func (t *table) Exec(names []string) string {
	s := fmt.Sprintf("x%d", 1) // want `call to fmt.Sprintf allocates`
	out := ""
	for _, n := range names {
		out += n         // want `string \+= in a loop allocates per iteration`
		_ = n + "suffix" // want `string concatenation in a loop allocates per iteration`
		_ = []int{1, 2}  // want `slice literal in a loop allocates per iteration`
	}
	m := map[string]int{} // want `map literal allocates`
	_ = m
	_ = []int{1} // slice literal outside a loop is fine
	//homeo:allowalloc boot-time fill, runs once
	cold := fmt.Sprintf("cold")
	_ = cold
	return s + out // concatenation outside a loop is fine
}

// closures inside a hot function run on the same path.
//
//homeo:hotpath
func (t *table) ExecFn(names []string) func() error {
	return func() error {
		return fmt.Errorf("boom") // want `call to fmt.Errorf allocates`
	}
}

// Decode reflects on the hot path; the helper it could call does not count.
//
//homeo:hotpath
func (t *table) Decode(data []byte, dec *json.Decoder) error {
	if err := json.Unmarshal(data, t); err != nil { // want `call to encoding/json.Unmarshal reflects`
		return err
	}
	if err := dec.Decode(t); err != nil { // want `call to encoding/json.Decode reflects`
		return err
	}
	return decodeCold(data, t)
}

func decodeCold(data []byte, t *table) error { return json.Unmarshal(data, t) }

// cold is unannotated; nothing is checked.
func cold(names []string) string {
	out := ""
	for _, n := range names {
		out += n
	}
	return fmt.Sprintf("%s", out)
}
