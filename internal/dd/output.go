package dd

// Output is a sink that materializes a collection: it maintains the
// accumulated contents and records the net change of each epoch, which is
// what downstream consumers (e.g. the data plane model updater) act on.
type Output[T comparable] struct {
	state   map[T]Diff
	changes map[T]Diff // net change during the current/last epoch
	live    int        // values in state with positive multiplicity
}

// NewOutput attaches a materializing sink to c.
func NewOutput[T comparable](c Collection[T]) *Output[T] {
	o := &Output[T]{state: make(map[T]Diff), changes: make(map[T]Diff)}
	c.p.subscribe(func(iter int, batch []Entry[T]) {
		for _, e := range batch {
			if d := o.changes[e.Val] + e.Diff; d == 0 {
				delete(o.changes, e.Val)
			} else {
				o.changes[e.Val] = d
			}
			was := o.state[e.Val]
			now := was + e.Diff
			if now == 0 {
				delete(o.state, e.Val)
			} else {
				o.state[e.Val] = now
			}
			switch {
			case was <= 0 && now > 0:
				o.live++
			case was > 0 && now <= 0:
				o.live--
			}
		}
	})
	// Reset the change log at the start of every epoch, before inputs
	// flush (flushing can synchronously deliver batches through fused
	// stateless chains). A small log is cleared in place; a large one (a full
	// evaluation's) is dropped so its buckets do not outlive the epoch.
	c.g.resetters = append(c.g.resetters, func() {
		if len(o.changes) > keepCap {
			o.changes = make(map[T]Diff)
		} else {
			clear(o.changes)
		}
	})
	return o
}

// State returns the accumulated multiplicity of every present value. The
// returned map is live; callers must not modify it.
func (o *Output[T]) State() map[T]Diff { return o.state }

// Contains reports whether val is present (multiplicity > 0).
func (o *Output[T]) Contains(val T) bool { return o.state[val] > 0 }

// Live returns the number of values with positive multiplicity, kept as
// diffs cross zero, so it costs nothing to read.
func (o *Output[T]) Live() int { return o.live }

// Len returns the number of distinct present values.
func (o *Output[T]) Len() int { return len(o.state) }

// Values returns the distinct present values in unspecified order.
func (o *Output[T]) Values() []T {
	vals := make([]T, 0, len(o.state))
	for v, d := range o.state {
		if d > 0 {
			vals = append(vals, v)
		}
	}
	return vals
}

// Changes returns the net per-value change of the last completed epoch.
// The returned map is live; callers must not modify it.
func (o *Output[T]) Changes() map[T]Diff { return o.changes }

// ChangeList returns the last epoch's net changes as entries, insertions
// and deletions mixed, in unspecified order.
func (o *Output[T]) ChangeList() []Entry[T] {
	out := make([]Entry[T], 0, len(o.changes))
	for v, d := range o.changes {
		out = append(out, Entry[T]{Val: v, Diff: d})
	}
	return out
}
