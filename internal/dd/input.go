package dd

// Input is a root collection whose contents are controlled by the caller.
// Changes staged with Insert/Delete/Update take effect at the next
// Graph.Advance.
type Input[T comparable] struct {
	g      *Graph
	out    *port[T]
	coll   Collection[T]
	staged map[T]Diff
	// state mirrors the accumulated contents, for Contains, Len and
	// State.
	state map[T]Diff
}

// NewInput creates an input collection on g.
func NewInput[T comparable](g *Graph) *Input[T] {
	coll, p := newCollection[T](g)
	in := &Input[T]{g: g, out: p, coll: coll, staged: make(map[T]Diff), state: make(map[T]Diff)}
	g.inputs = append(g.inputs, in)
	return in
}

// Collection returns the dataflow handle for this input.
func (in *Input[T]) Collection() Collection[T] { return in.coll }

// Insert stages an insertion of val (multiplicity +1).
func (in *Input[T]) Insert(val T) { in.Update(val, 1) }

// Delete stages a deletion of val (multiplicity -1). Deleting a value
// that is not present leaves the collection with a negative multiplicity,
// which downstream operators treat as absent; callers should avoid it.
func (in *Input[T]) Delete(val T) { in.Update(val, -1) }

// Update stages an arbitrary signed multiplicity change.
func (in *Input[T]) Update(val T, d Diff) {
	if d == 0 {
		return
	}
	in.staged[val] += d
	if in.staged[val] == 0 {
		delete(in.staged, val)
	}
}

// Contains reports whether val is currently in the input (staged changes
// not yet applied are ignored).
func (in *Input[T]) Contains(val T) bool { return in.state[val] > 0 }

// State returns the accumulated multiplicity of every value (staged
// changes not yet applied are ignored). The returned map is live;
// callers must not modify it.
func (in *Input[T]) State() map[T]Diff { return in.state }

// Len returns the number of distinct values currently present.
func (in *Input[T]) Len() int { return len(in.state) }

// flush injects staged changes at iteration 0 of the new epoch.
func (in *Input[T]) flush() {
	if len(in.staged) == 0 {
		return
	}
	batch := make([]Entry[T], 0, len(in.staged))
	for v, d := range in.staged {
		batch = append(batch, Entry[T]{Val: v, Diff: d})
		in.state[v] += d
		if in.state[v] == 0 {
			delete(in.state, v)
		}
	}
	in.staged = make(map[T]Diff)
	in.g.emitted += int64(len(batch))
	in.out.emit(0, batch)
}
