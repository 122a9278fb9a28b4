package ic

import (
	"runtime"
	"sync"

	"symbol/internal/obs"
	"symbol/internal/word"
)

// Dirty-page tracking granularity. Every store into the simulated memory
// marks its page; Reset zeroes only the marked pages, so recycling a State
// across runs costs O(words actually written), not O(MemWords). 4096 words
// (one 32 KiB span) keeps the page table tiny (~4700 entries) while making
// the per-store bookkeeping a shift, a byte load and a rarely-taken branch.
const (
	PageShift = 12
	PageWords = 1 << PageShift
	numPages  = (MemWords + PageWords - 1) / PageWords
)

// State is one executor's worth of mutable machine state: the simulated
// tagged memory image and the (virtual) register file, plus the VLIW
// simulator's per-register ready cycles. It exists so that an embedding
// process serving many queries can recycle the multi-megaword memory image
// through the process-wide idle list (Acquire, Release) instead of
// mapping and faulting it in from scratch on every run.
//
// On unix the image is an anonymous mapping outside the Go heap (mem_unix.go),
// so it costs the pages a run dirties, and the collector neither counts nor
// scans it. The mapping is given back deterministically: Release unmaps a
// state the idle list has no room for, and Free unmaps one at once (a state
// dropped after a panic, or one an executor made for a single run). A
// finalizer unmaps a state nobody released. An executor that slices Mem
// must therefore keep its State reachable for as long as it uses the slice.
//
// A State is NOT safe for concurrent use; it represents one machine. The
// contract with the executors:
//
//   - a fresh State is all zeroes, exactly like a freshly made slice;
//   - the executor calls Touch (or TouchRange) for every memory word it
//     writes;
//   - Reset restores the all-zero state in time proportional to the pages
//     dirtied since the previous Reset.
type State struct {
	mem    []word.W
	mapped bool // mem is an anonymous mapping (unmapped by Free)
	regs   []word.W
	ready  []int64

	dirty    []int32 // indices of dirtied pages, in first-touch order
	dirtyBit []bool  // per-page dirty flag
}

// NewState makes a zeroed machine state sized for the compile-time memory
// layout. Executors that run many queries take states from Acquire
// instead. A caller that makes a state for one run should Free it
// afterwards; otherwise the image lives until a collection finds the state
// unreachable.
func NewState() *State {
	s := &State{dirtyBit: make([]bool, numPages)}
	s.mem, s.mapped = newMem()
	if s.mapped {
		runtime.SetFinalizer(s, (*State).Free)
	}
	return s
}

// Free gives the memory image back now. s must not be used afterwards, nor
// any slice of Mem taken before; Free is idempotent.
func (s *State) Free() {
	if s.mapped {
		s.mapped = false
		runtime.SetFinalizer(s, nil)
		unmapMem(s.mem)
	}
	s.mem = nil
}

// Mem returns the simulated memory image (always MemWords long). The slice
// is valid only while s is reachable and not freed: a caller that holds it
// across its last use of s must runtime.KeepAlive(s) past the slice's last
// use.
func (s *State) Mem() []word.W { return s.mem }

// Regs returns a zeroed register file of at least n registers, reusing the
// previous run's backing array when it is large enough. (Reset already
// zeroed it; growth allocates fresh, which is zero by construction.)
func (s *State) Regs(n int) []word.W {
	if cap(s.regs) < n {
		s.regs = make([]word.W, n)
	} else {
		s.regs = s.regs[:n]
	}
	return s.regs
}

// Ready returns a zeroed ready-cycle array of at least n entries for the
// VLIW simulator's latency bookkeeping, with the same reuse contract as
// Regs.
func (s *State) Ready(n int) []int64 {
	if cap(s.ready) < n {
		s.ready = make([]int64, n)
	} else {
		s.ready = s.ready[:n]
	}
	return s.ready
}

// Touch marks the page holding addr dirty. Callers must Touch every memory
// word they write, or Reset will miss it. Out-of-image addresses are
// ignored (the executors bounds-check stores before writing).
func (s *State) Touch(addr uint64) {
	pg := addr >> PageShift
	if pg < uint64(len(s.dirtyBit)) && !s.dirtyBit[pg] {
		s.dirtyBit[pg] = true
		s.dirty = append(s.dirty, int32(pg))
	}
}

// TouchRange marks every page intersecting [lo, hi) dirty. Used for bulk
// writers (the ball-copy routines) whose exact extent is inconvenient to
// track store by store.
func (s *State) TouchRange(lo, hi uint64) {
	if hi > uint64(len(s.mem)) {
		hi = uint64(len(s.mem))
	}
	if lo >= hi {
		return
	}
	for pg := lo >> PageShift; pg <= (hi-1)>>PageShift; pg++ {
		if !s.dirtyBit[pg] {
			s.dirtyBit[pg] = true
			s.dirty = append(s.dirty, int32(pg))
		}
	}
}

// DirtyPages reports how many memory pages have been written since the last
// Reset (observability for pool tuning and tests).
func (s *State) DirtyPages() int { return len(s.dirty) }

// MaxDirty returns the exclusive upper bound of the addresses dirtied in
// [lo, hi) since the last Reset, rounded up to a page boundary (and clamped
// to hi), or lo when no page in the range was written. The executors derive
// the per-area high-water marks from it after a run: the dirty set is
// page-granular, so the marks are too, but reading it costs one scan of the
// (short) dirty list instead of a compare on every store.
func (s *State) MaxDirty(lo, hi uint64) uint64 {
	top := lo
	for _, pg := range s.dirty {
		base := uint64(pg) << PageShift
		if base >= hi || base+PageWords <= lo {
			continue
		}
		end := base + PageWords
		if end > hi {
			end = hi
		}
		if end > top {
			top = end
		}
	}
	return top
}

// HighWater sets the per-area memory high-water marks of out (heap, env,
// choice-point, trail and PDL words above each area's base) from the
// dirty set, so they are page-granular.
func (s *State) HighWater(out *obs.Stats) {
	out.HeapHigh = int64(s.MaxDirty(HeapBase, HeapBase+HeapSize) - HeapBase)
	out.EnvHigh = int64(s.MaxDirty(EnvBase, EnvBase+EnvSize) - EnvBase)
	out.CPHigh = int64(s.MaxDirty(CPBase, CPBase+CPSize) - CPBase)
	out.TrailHigh = int64(s.MaxDirty(TrailBase, TrailBase+TrailSize) - TrailBase)
	out.PDLHigh = int64(s.MaxDirty(PDLBase, PDLBase+PDLSize) - PDLBase)
}

// Reset restores the all-zero state: it zeroes exactly the dirtied memory
// pages, the register file and the ready array, then clears the dirty set.
func (s *State) Reset() {
	for _, pg := range s.dirty {
		lo := int(pg) << PageShift
		hi := lo + PageWords
		if hi > len(s.mem) {
			hi = len(s.mem)
		}
		clear(s.mem[lo:hi])
		s.dirtyBit[pg] = false
	}
	s.dirty = s.dirty[:0]
	clear(s.regs[:cap(s.regs)])
	clear(s.ready[:cap(s.ready)])
}

// idle is the process-wide list of reset states waiting for their next run.
// A reset State is all zeroes and independent of the program it last ran,
// so every engine in the process shares one list. It is a mutex and a
// slice, not a sync.Pool: a collection empties a sync.Pool, and refilling
// it means allocating and zeroing a fresh memory image per miss.
var idle struct {
	mu     sync.Mutex
	states []*State
}

// Acquire returns an all-zero state: the most recently released idle one,
// or, when none is idle, a freshly allocated one (fresh reports which).
func Acquire() (st *State, fresh bool) {
	idle.mu.Lock()
	if n := len(idle.states); n > 0 {
		st = idle.states[n-1]
		idle.states[n-1] = nil
		idle.states = idle.states[:n-1]
		idle.mu.Unlock()
		return st, false
	}
	idle.mu.Unlock()
	return NewState(), true
}

// Release resets s and puts it on the idle list for the next Acquire. The
// list keeps at most runtime.GOMAXPROCS(0) states, the number of runs that
// can execute at once; a state released past that cap is freed. The caller
// must not use s afterwards, and must Free a state instead of releasing it
// when a run may have written memory without marking it (a panic
// mid-store), because Reset clears only marked pages.
func (s *State) Release() {
	s.Reset()
	idle.mu.Lock()
	kept := len(idle.states) < runtime.GOMAXPROCS(0)
	if kept {
		idle.states = append(idle.states, s)
	}
	idle.mu.Unlock()
	if !kept {
		s.Free()
	}
}

// Idle reports how many reset states are on the idle list.
func Idle() int {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	return len(idle.states)
}
