package dep

import (
	"testing"

	"symbol/internal/ic"
)

const (
	t0 = ic.FirstTemp
	t1 = ic.FirstTemp + 1
	t2 = ic.FirstTemp + 2
)

func hasEdge(g *Graph, from, to int, kind Kind) bool {
	for _, e := range g.Edges {
		if e.From == from && e.To == to && e.Kind == kind {
			return true
		}
	}
	return false
}

func edgeLat(g *Graph, from, to int, kind Kind) int {
	for _, e := range g.Edges {
		if e.From == from && e.To == to && e.Kind == kind {
			return e.Latency
		}
	}
	return -1
}

func TestRAWLatency(t *testing.T) {
	insts := []ic.Inst{
		{Op: ic.Ld, D: t0, A: ic.RegH},                   // 0
		{Op: ic.Add, D: t1, A: t0, HasImm: true, Imm: 1}, // 1: uses load result
		{Op: ic.Mov, D: t2, A: t1},                       // 2: uses alu result
	}
	g := Build(insts, Options{MemLatency: 2})
	if l := edgeLat(g, 0, 1, RAW); l != 2 {
		t.Errorf("load RAW latency = %d, want 2", l)
	}
	if l := edgeLat(g, 1, 2, RAW); l != 1 {
		t.Errorf("alu RAW latency = %d, want 1", l)
	}
}

func TestWARAndWAW(t *testing.T) {
	insts := []ic.Inst{
		{Op: ic.Mov, D: t0, A: ic.RegH}, // 0 writes t0
		{Op: ic.Mov, D: t1, A: t0},      // 1 reads t0
		{Op: ic.Mov, D: t0, A: ic.RegE}, // 2 rewrites t0
	}
	g := Build(insts, Options{MemLatency: 2})
	if !hasEdge(g, 0, 2, WAW) {
		t.Error("missing WAW 0→2")
	}
	if l := edgeLat(g, 1, 2, WAR); l != 0 {
		t.Errorf("WAR latency = %d, want 0 (same word legal)", l)
	}
}

func TestMemoryDependencies(t *testing.T) {
	insts := []ic.Inst{
		{Op: ic.St, A: t0, Imm: 0, B: t1},     // 0
		{Op: ic.Ld, D: t2, A: t0, Imm: 0},     // 1: same base+offset → alias
		{Op: ic.Ld, D: t2 + 1, A: t0, Imm: 1}, // 2: same base, different offset
		{Op: ic.St, A: t0, Imm: 0, B: t1},     // 3: store-store alias
	}
	g := Build(insts, Options{MemLatency: 2})
	if l := edgeLat(g, 0, 1, Mem); l != 1 {
		t.Errorf("st→ld latency = %d, want 1", l)
	}
	if hasEdge(g, 0, 2, Mem) {
		t.Error("same base, different offset must not alias")
	}
	if !hasEdge(g, 0, 3, Mem) {
		t.Error("missing st→st dependency")
	}
	if l := edgeLat(g, 1, 3, Mem); l != 0 {
		t.Errorf("ld→st latency = %d, want 0", l)
	}
}

func TestRegionDisambiguation(t *testing.T) {
	insts := []ic.Inst{
		{Op: ic.St, A: t0, Imm: 0, B: t1, Reg: ic.RegionTrail},
		{Op: ic.Ld, D: t2, A: t1, Imm: 0, Reg: ic.RegionHeap},
	}
	g := Build(insts, Options{MemLatency: 2})
	if !hasEdge(g, 0, 1, Mem) {
		t.Error("without region analysis the pair must alias")
	}
	g = Build(insts, Options{MemLatency: 2, DisambiguateRegions: true})
	if hasEdge(g, 0, 1, Mem) {
		t.Error("different regions must not alias when enabled")
	}
}

func TestBranchSequenceConstraint(t *testing.T) {
	insts := []ic.Inst{
		{Op: ic.BrTag, A: t0, Target: 0},
		{Op: ic.BrCmp, A: t1, Target: 0},
	}
	g := Build(insts, Options{MemLatency: 2})
	if !hasEdge(g, 0, 1, Ctrl) {
		t.Error("branches must keep their order")
	}
}

func TestSpeculationOffLive(t *testing.T) {
	live := map[ic.Reg]bool{t1: true}
	insts := []ic.Inst{
		{Op: ic.BrTag, A: t0, Target: 0},  // 0: branch
		{Op: ic.Mov, D: t1, A: t0},        // 1: dest live off-trace
		{Op: ic.Mov, D: t2, A: t0},        // 2: dest dead off-trace
		{Op: ic.St, A: t0, Imm: 0, B: t0}, // 3: store never speculates
		{Op: ic.Ld, D: t2 + 1, A: t0},     // 4: load with dead dest
	}
	g := Build(insts, Options{MemLatency: 2, OffLive: []map[ic.Reg]bool{live, nil, nil, nil, nil}})
	if l := edgeLat(g, 0, 1, OffLive); l != 1 {
		t.Errorf("live-dest op needs an off-live edge with latency 1, got %d", l)
	}
	if hasEdge(g, 0, 2, OffLive) {
		t.Error("dead-dest op may speculate")
	}
	if !hasEdge(g, 0, 3, OffLive) {
		t.Error("stores may not speculate")
	}
	if hasEdge(g, 0, 4, OffLive) {
		t.Error("dead-dest loads may speculate (non-faulting)")
	}
}

func TestSinkingRules(t *testing.T) {
	live := map[ic.Reg]bool{t0: true}
	insts := []ic.Inst{
		{Op: ic.Mov, D: t0, A: ic.RegH},       // 0: dest live on exit → pinned above
		{Op: ic.Mov, D: t1, A: ic.RegH},       // 1: dest dead on exit → may sink
		{Op: ic.BrTag, A: ic.RegH, Target: 0}, // 2
	}
	g := Build(insts, Options{MemLatency: 2, OffLive: []map[ic.Reg]bool{nil, nil, live}})
	if !hasEdge(g, 0, 2, Order) {
		t.Error("op with live dest must stay above the branch")
	}
	if hasEdge(g, 1, 2, Order) {
		t.Error("op with dead dest may sink below the branch")
	}
}

func TestTerminalPinsEverything(t *testing.T) {
	insts := []ic.Inst{
		{Op: ic.Mov, D: t0, A: ic.RegH},
		{Op: ic.Jsr, D: ic.RegCP, Target: 0},
	}
	g := Build(insts, Options{MemLatency: 2, OffLive: make([]map[ic.Reg]bool, 2)})
	if !hasEdge(g, 0, 1, Order) {
		t.Error("everything must stay above a call")
	}
}

func TestSysOrdering(t *testing.T) {
	insts := []ic.Inst{
		{Op: ic.St, A: t0, Imm: 0, B: t1},                     // 0
		{Op: ic.SysOp, Sys: ic.SysWrite, A: t0, B: ic.None},   // 1
		{Op: ic.SysOp, Sys: ic.SysNl, A: ic.None, B: ic.None}, // 2
	}
	g := Build(insts, Options{MemLatency: 2})
	if !hasEdge(g, 0, 1, Mem) {
		t.Error("write/1 reads the heap: store must come first")
	}
	if !hasEdge(g, 1, 2, Order) {
		t.Error("sys escapes keep their order")
	}
}

// TestSysMemoryEdges: escapes that only read memory let later loads pass
// and keep later stores at or below them; ball_put writes the ball area, so
// later loads and stores land strictly below it.
func TestSysMemoryEdges(t *testing.T) {
	insts := []ic.Inst{
		{Op: ic.SysOp, Sys: ic.SysWrite, A: t0, B: ic.None},   // 0
		{Op: ic.Ld, D: t1, A: ic.RegH},                        // 1
		{Op: ic.St, A: ic.RegH, Imm: 1, B: t1},                // 2
		{Op: ic.SysOp, Sys: ic.SysBallPut, A: t0, B: ic.None}, // 3
		{Op: ic.Ld, D: t2, A: ic.RegE},                        // 4
		{Op: ic.St, A: ic.RegE, Imm: 1, B: t2},                // 5
	}
	g := Build(insts, Options{MemLatency: 2})
	if hasEdge(g, 0, 1, Mem) {
		t.Error("write/1 only reads memory: a later load need not wait for it")
	}
	if l := edgeLat(g, 0, 2, Mem); l != 0 {
		t.Errorf("write/1 → store latency = %d, want 0 (read before write)", l)
	}
	if l := edgeLat(g, 3, 4, Mem); l != 1 {
		t.Errorf("ball_put → load latency = %d, want 1", l)
	}
	if l := edgeLat(g, 3, 5, Mem); l != 1 {
		t.Errorf("ball_put → store latency = %d, want 1", l)
	}
}

func TestLoadExitLatency(t *testing.T) {
	// With bubble 0, a non-speculable load must sit one word above the
	// branch so the off-trace consumer sees a completed load.
	live := map[ic.Reg]bool{t0: true}
	insts := []ic.Inst{
		{Op: ic.Ld, D: t0, A: ic.RegH},
		{Op: ic.BrTag, A: ic.RegE, Target: 0},
	}
	g := Build(insts, Options{MemLatency: 2, BranchBubble: 0, OffLive: []map[ic.Reg]bool{nil, live}})
	if l := edgeLat(g, 0, 1, Order); l != 1 {
		t.Errorf("exit latency edge = %d, want 1", l)
	}
	g = Build(insts, Options{MemLatency: 2, BranchBubble: 1, OffLive: []map[ic.Reg]bool{nil, live}})
	if l := edgeLat(g, 0, 1, Order); l != 0 {
		t.Errorf("with a bubble the load may share the branch word, got %d", l)
	}
}

func TestCriticalPath(t *testing.T) {
	insts := []ic.Inst{
		{Op: ic.Ld, D: t0, A: ic.RegH},                   // 0
		{Op: ic.Add, D: t1, A: t0, HasImm: true, Imm: 1}, // 1
		{Op: ic.Mov, D: t2, A: ic.RegE},                  // 2: independent
	}
	g := Build(insts, Options{MemLatency: 2})
	prio := g.CriticalPath()
	if prio[0] <= prio[1] || prio[1] <= 0 {
		t.Errorf("critical path priorities wrong: %v", prio)
	}
	if prio[2] >= prio[0] {
		t.Errorf("independent op cannot outrank the chain head: %v", prio)
	}
}
