package alloc

// Len returns the number of resident VMs.
func (t *Tracker) Len() int {
	n := 0
	for _, s := range t.servers {
		n += len(s.members)
	}
	return n
}

// Servers returns the number of servers ever opened.
func (t *Tracker) Servers() int { return len(t.servers) }
