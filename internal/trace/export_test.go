package trace

// windowCounter counts the distinct windows and window buffers a streamed
// table has held at the moments it was observed, and the distinct layouts
// among them (each layout attaches a new fill). It keeps every one it saw
// reachable, so a buffer allocated later can never reuse a counted one's
// address.
type windowCounter struct {
	allocs, layouts map[any]bool
}

func newWindowCounter() windowCounter {
	return windowCounter{allocs: map[any]bool{}, layouts: map[any]bool{}}
}

// observe records the windows t's streamed table holds now — the live
// ones and the idle ones — and returns how many it holds and how many
// distinct windows and buffers, and layouts, have been seen so far.
func (n windowCounter) observe(t *table) (held, allocs, layouts int) {
	s := t.shared
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := append([]*window(nil), s.idle...)
	for _, w := range s.live {
		ws = append(ws, w)
	}
	for _, w := range ws {
		held++
		n.allocs[w] = true
		if cap(w.buf) > 0 {
			n.allocs[&w.buf[:1][0]] = true
		}
		n.layouts[w.fill] = true
	}
	return held, len(n.allocs), len(n.layouts)
}
