package transformer

import (
	"fmt"
	"sync"
)

// Handle owns a model's tensors on behalf of a population member. Two
// flavors exist:
//
//   - a resident handle wraps a model that lives in memory for the
//     handle's whole lifetime (a freshly trained model). Get returns it,
//     Release is a no-op — resident tensors are never dropped under a
//     caller that may have mutated them (the pruning experiments edit
//     weights in place).
//   - a lazy handle knows how to load the tensors (from a zoo store
//     object file) but does not hold them until first use. Get loads on
//     demand and caches; Release drops the cached model so a campaign
//     over a large population keeps only its working set in memory. A
//     released handle reloads on the next Get — load → release → load
//     yields byte-identical tensors because store objects are immutable.
//
// Handles are safe for concurrent use: Get may race with Get or Release
// from other goroutines (a campaign's workers share the zoo's backbones).
type Handle struct {
	mu       sync.Mutex
	model    *Model
	load     func() (*Model, error)
	resident bool
}

// Resident wraps an in-memory model; Get returns it, Release is a no-op.
func Resident(m *Model) *Handle {
	return &Handle{model: m, resident: true}
}

// Lazy returns a handle that loads the model through load on first Get
// and can drop it again with Release. load must be pure: every call must
// yield byte-identical tensors (the store's determinism contract).
func Lazy(load func() (*Model, error)) *Handle {
	return &Handle{load: load}
}

// Get returns the model, loading it first if the handle is lazy and
// currently empty. A load failure panics: handles sit under accessors on
// hot paths that predate laziness (victim.Model().Predict in the middle
// of an extraction), where an error return is not plumbable — and a
// store object that validated at open time disappearing mid-run is
// infrastructure failure, not input.
func (h *Handle) Get() *Model {
	if h == nil {
		panic("transformer: Get on nil model handle")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.model == nil {
		if h.load == nil {
			panic("transformer: model handle holds no model and no loader")
		}
		m, err := h.load()
		if err != nil {
			panic(fmt.Sprintf("transformer: lazy model load: %v", err))
		}
		h.model = m
	}
	return h.model
}

// Release drops a lazy handle's cached tensors; the next Get reloads
// them. Resident handles ignore it (their tensors may carry in-place
// edits that a reload would silently discard).
func (h *Handle) Release() {
	if h == nil {
		return
	}
	h.mu.Lock()
	if !h.resident {
		h.model = nil
	}
	h.mu.Unlock()
}

// Loaded reports whether the tensors are currently in memory.
func (h *Handle) Loaded() bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.model != nil
}
