package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// String renders the event as one text timeline line.
func (e Event) String() string {
	who := "system"
	if e.Rank >= 0 {
		who = fmt.Sprintf("rank%-3d", e.Rank)
	}
	what := e.What
	switch e.Type {
	case Begin:
		what += "{"
	case End:
		what = "}" + what
	}
	s := fmt.Sprintf("%-12v %-7s %-8s %s", e.At, who, e.Layer, what)
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// MemorySink collects events in arrival order (which, under the
// deterministic kernel, is chronological) and renders them as a text
// timeline. It replaces the old trace.Log. The zero value is ready to use;
// a nil *MemorySink ignores emissions.
type MemorySink struct {
	events []Event
}

// Emit implements Sink. Safe on a nil sink.
func (m *MemorySink) Emit(e Event) {
	if m == nil {
		return
	}
	m.events = append(m.events, e)
}

// Events returns the recorded events in order.
func (m *MemorySink) Events() []Event {
	if m == nil {
		return nil
	}
	return m.events
}

// Len reports the number of recorded events.
func (m *MemorySink) Len() int {
	if m == nil {
		return 0
	}
	return len(m.events)
}

// Filter returns the events matching pred, in order.
func (m *MemorySink) Filter(pred func(Event) bool) []Event {
	var out []Event
	for _, e := range m.Events() {
		if pred(e) {
			out = append(out, e)
		}
	}
	return out
}

// ByRank returns the events for one rank (-1 for system-wide activity).
func (m *MemorySink) ByRank(rank int) []Event {
	return m.Filter(func(e Event) bool { return e.Rank == rank })
}

// ByLayer returns the events emitted by one layer.
func (m *MemorySink) ByLayer(l Layer) []Event {
	return m.Filter(func(e Event) bool { return e.Layer == l })
}

// Render writes the chronological timeline, one event per line.
func (m *MemorySink) Render(w io.Writer) {
	for _, e := range m.Events() {
		fmt.Fprintln(w, e)
	}
}

// Summary renders per-rank event counts by layer, a quick sanity view.
func (m *MemorySink) Summary() string {
	type key struct {
		rank  int
		layer Layer
	}
	counts := make(map[key]int)
	ranks := make(map[int]bool)
	for _, e := range m.Events() {
		counts[key{e.Rank, e.Layer}]++
		ranks[e.Rank] = true
	}
	var ids []int
	//lint:allow-simdeterminism keys are sorted below before any output is built
	for r := range ranks {
		ids = append(ids, r)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, r := range ids {
		who := "system"
		if r >= 0 {
			who = fmt.Sprintf("rank %d", r)
		}
		fmt.Fprintf(&b, "%-8s:", who)
		for l := Layer(0); int(l) < len(layerNames); l++ {
			if n := counts[key{r, l}]; n > 0 {
				fmt.Fprintf(&b, " %s=%d", l, n)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
