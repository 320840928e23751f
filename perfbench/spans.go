package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one phase of the benchmark (rep, build, warm, run, check) around
// its calls into the layers, in host nanoseconds since the pass started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a top-level span
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spans records phase spans in memory; a nil *spans records nothing, so
// untraced passes pay one nil check per phase.
type spans struct {
	t0    time.Time
	list  []span
	stack []int
}

func (s *spans) begin(name string) int {
	if s == nil {
		return -1
	}
	if s.t0.IsZero() {
		s.t0 = time.Now()
	}
	parent := -1
	if len(s.stack) > 0 {
		parent = s.stack[len(s.stack)-1]
	}
	id := len(s.list)
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, StartNs: time.Since(s.t0).Nanoseconds()})
	s.stack = append(s.stack, id)
	return id
}

func (s *spans) end(id int) {
	if s == nil {
		return
	}
	s.list[id].EndNs = time.Since(s.t0).Nanoseconds()
	s.stack = s.stack[:len(s.stack)-1]
}

// write saves the spans as JSON under dir and returns the file's path.
func (s *spans) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	b, err := json.Marshal(s.list)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// summary totals each phase's duration and self time (its duration minus
// the time its child spans cover).
func (s *spans) summary() string {
	total := map[string]int64{}
	self := map[string]int64{}
	var order []string
	for _, sp := range s.list {
		d := sp.EndNs - sp.StartNs
		if _, ok := total[sp.Name]; !ok {
			order = append(order, sp.Name)
		}
		total[sp.Name] += d
		self[sp.Name] += d
		if sp.Parent >= 0 {
			self[s.list[sp.Parent].Name] -= d
		}
	}
	var b strings.Builder
	for _, name := range order {
		fmt.Fprintf(&b, "  phase %-6s total %10.3f ms  self %10.3f ms\n", name,
			float64(total[name])/1e6, float64(self[name])/1e6)
	}
	return b.String()
}
