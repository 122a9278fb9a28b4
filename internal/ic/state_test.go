package ic

import (
	"runtime"
	"testing"

	"symbol/internal/word"
)

func TestStateResetRestoresZero(t *testing.T) {
	s := NewState()
	mem := s.Mem()
	if len(mem) != MemWords {
		t.Fatalf("mem len %d, want %d", len(mem), MemWords)
	}
	addrs := []uint64{0, HeapBase, HeapBase + 12345, EnvBase + 7, TrailBase, MemWords - 1}
	for i, a := range addrs {
		mem[a] = word.MakeInt(int64(i + 1))
		s.Touch(a)
	}
	if got := s.DirtyPages(); got == 0 || got > len(addrs) {
		t.Fatalf("DirtyPages=%d, want 1..%d", got, len(addrs))
	}
	regs := s.Regs(16)
	regs[3] = word.MakeInt(99)
	ready := s.Ready(16)
	ready[5] = 42

	s.Reset()
	for _, a := range addrs {
		if mem[a] != 0 {
			t.Fatalf("mem[%#x]=%v after Reset, want 0", a, mem[a])
		}
	}
	if s.DirtyPages() != 0 {
		t.Fatalf("DirtyPages=%d after Reset", s.DirtyPages())
	}
	// The next run's register file reuses the backing array but sees zeros.
	regs = s.Regs(8)
	for i, r := range regs {
		if r != 0 {
			t.Fatalf("regs[%d]=%v after Reset, want 0", i, r)
		}
	}
	ready = s.Ready(8)
	for i, r := range ready {
		if r != 0 {
			t.Fatalf("ready[%d]=%v after Reset, want 0", i, r)
		}
	}
}

func TestStateTouchRange(t *testing.T) {
	s := NewState()
	mem := s.Mem()
	lo, hi := uint64(BallBase), uint64(BallBase+BallSize)
	for a := lo; a < hi; a += PageWords / 2 {
		mem[a] = word.MakeInt(7)
	}
	s.TouchRange(lo, hi)
	s.Reset()
	for a := lo; a < hi; a += PageWords / 2 {
		if mem[a] != 0 {
			t.Fatalf("mem[%#x] dirty after Reset", a)
		}
	}
	// Degenerate and clamped ranges must not panic or mark anything.
	s.TouchRange(5, 5)
	s.TouchRange(MemWords+100, MemWords+200)
	if s.DirtyPages() != 0 {
		t.Fatalf("empty ranges dirtied %d pages", s.DirtyPages())
	}
}

func TestStateTouchOutOfImage(t *testing.T) {
	s := NewState()
	s.Touch(MemWords + 12345) // ignored, not a panic
	if s.DirtyPages() != 0 {
		t.Fatalf("out-of-image touch dirtied a page")
	}
}

func TestStateRegsGrowAndShrink(t *testing.T) {
	s := NewState()
	big := s.Regs(256)
	big[200] = word.MakeInt(5)
	s.Reset()
	small := s.Regs(4)
	if len(small) != 4 {
		t.Fatalf("Regs(4) len %d", len(small))
	}
	// Growing again must still expose zeroed high registers.
	big = s.Regs(256)
	if big[200] != 0 {
		t.Fatalf("regs[200]=%v after Reset, want 0", big[200])
	}
}

func TestProgramMaxReg(t *testing.T) {
	p := &Program{Code: []Inst{
		{Op: Mov, D: FirstTemp + 9, A: FirstArg},
		{Op: Add, D: RegRV, A: FirstTemp + 3, B: FirstTemp + 7},
	}}
	if got := p.MaxReg(); got != FirstTemp+9 {
		t.Fatalf("MaxReg=%d, want %d", got, FirstTemp+9)
	}
	// Cached: a second call returns the same value.
	if got := p.MaxReg(); got != FirstTemp+9 {
		t.Fatalf("cached MaxReg=%d", got)
	}
}

// TestAcquireReleaseZero: a state released with dirty memory pages, a
// written register file and ready array comes back from Acquire all zero.
func TestAcquireReleaseZero(t *testing.T) {
	s, _ := Acquire()
	mem := s.Mem()
	for i, a := range []uint64{0, HeapBase + 77, EnvBase + 7, TrailBase, MemWords - 1} {
		mem[a] = word.MakeInt(int64(i + 1))
		s.Touch(a)
	}
	s.Regs(64)[40] = word.MakeInt(9)
	s.Ready(64)[33] = 12
	s.Release()

	got, fresh := Acquire()
	defer got.Release()
	if got != s || fresh {
		t.Fatalf("Acquire after Release returned %p (fresh=%v), want the released %p", got, fresh, s)
	}
	if n := got.DirtyPages(); n != 0 {
		t.Fatalf("DirtyPages=%d on an acquired state, want 0", n)
	}
	for a, w := range got.Mem() {
		if w != 0 {
			t.Fatalf("mem[%#x]=%v on an acquired state, want 0", a, w)
		}
	}
	for i, r := range got.Regs(64) {
		if r != 0 {
			t.Fatalf("regs[%d]=%v on an acquired state, want 0", i, r)
		}
	}
	for i, r := range got.Ready(64) {
		if r != 0 {
			t.Fatalf("ready[%d]=%v on an acquired state, want 0", i, r)
		}
	}
}

// TestReleaseCapsIdle: releasing more states than GOMAXPROCS keeps only
// GOMAXPROCS of them idle.
func TestReleaseCapsIdle(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	states := make([]*State, procs+2)
	for i := range states {
		states[i], _ = Acquire()
	}
	for _, s := range states {
		s.Release()
	}
	if n := Idle(); n != procs {
		t.Fatalf("Idle()=%d after releasing %d states, want GOMAXPROCS = %d", n, len(states), procs)
	}
}
