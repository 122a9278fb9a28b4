// Package dep builds the data-dependency graph over a trace of Intermediate
// Code instructions. All the dependency kinds the paper lists in §4.3 are
// modeled: memory dependency, source-destination (read-after-write),
// write-after-read, write-after-write, and off-live (an operation may not
// move above a branch if its destination is live on the branch's off-trace
// path). A constraint on the sequence of branches is also imposed, exactly
// as the paper does, "to limit the possibility of code motion to avoid an
// exponential growth of instruction copies".
package dep

import (
	"symbol/internal/ic"
)

// Kind classifies a dependency edge.
type Kind uint8

const (
	RAW     Kind = iota // source-destination (true) dependency
	WAR                 // write-after-read
	WAW                 // write-after-write
	Mem                 // memory (load/store ordering)
	Ctrl                // branch-sequence constraint
	OffLive             // speculation barrier: destination live off-trace
	Order               // side-effect ordering (stores/sys below branches)
)

var kindNames = []string{"raw", "war", "waw", "mem", "ctrl", "off-live", "order"}

func (k Kind) String() string { return kindNames[k] }

// Edge is a scheduling constraint: To must issue at least Latency cycles
// after From (Latency 0 allows the same instruction word).
type Edge struct {
	From, To int
	Latency  int
	Kind     Kind
}

// Graph is the dependency DAG of one trace.
type Graph struct {
	Insts []ic.Inst
	Edges []Edge
	// Succs/Preds index Edges by endpoint.
	Succs [][]int
	Preds [][]int
}

// Options configure graph construction.
type Options struct {
	// MemLatency is the load-to-use latency.
	MemLatency int
	// OffLive[i], for a conditional branch at trace position i, is the set
	// of registers live on the branch's off-trace edge. Operations whose
	// destination is in this set (and all stores and sys escapes) may not
	// move above the branch.
	OffLive []map[ic.Reg]bool
	// DisambiguateRegions breaks memory dependencies between accesses
	// statically annotated with different memory regions.
	DisambiguateRegions bool
	// BranchBubble is the machine's taken-branch penalty; together with
	// MemLatency it decides how far a non-speculable load must stay above
	// a branch so that an off-trace consumer never observes an in-flight
	// value: branchWord >= loadWord + MemLatency - 1 - BranchBubble.
	BranchBubble int
}

// latencyOf is the producer latency of an instruction's result.
func latencyOf(in *ic.Inst, memLat int) int {
	if in.Op == ic.Ld {
		return memLat
	}
	return 1
}

// mayAlias conservatively decides whether two memory operations can touch
// the same word. Accesses through the same base register with different
// offsets are provably disjoint; with region disambiguation enabled,
// accesses to different annotated regions are too. Everything else aliases
// (§4.1: pointer-derived stack references cannot be disambiguated).
func mayAlias(a, b *ic.Inst, regions bool) bool {
	if a.A == b.A && a.Imm != b.Imm {
		return false
	}
	if regions && a.Reg != ic.RegionUnknown && b.Reg != ic.RegionUnknown && a.Reg != b.Reg {
		return false
	}
	return true
}

// speculable reports whether instruction in may move above a conditional
// branch whose off-trace live set is live. Stores, sys escapes and control
// operations never speculate; others require a dead destination off-trace.
// Loads are assumed non-faulting (dismissible), as on real VLIWs.
func speculable(in *ic.Inst, live map[ic.Reg]bool) bool {
	switch in.Class() {
	case ic.ClassControl, ic.ClassSys:
		return false
	}
	if in.Op == ic.St {
		return false
	}
	d := in.Def()
	if d == ic.None {
		return true
	}
	return !live[d]
}

// Build constructs the dependency graph for the trace insts.
func Build(insts []ic.Inst, opts Options) *Graph {
	n := len(insts)
	g := &Graph{
		Insts: insts,
		Succs: make([][]int, n),
		Preds: make([][]int, n),
	}
	add := func(from, to, lat int, kind Kind) {
		e := len(g.Edges)
		g.Edges = append(g.Edges, Edge{From: from, To: to, Latency: lat, Kind: kind})
		g.Succs[from] = append(g.Succs[from], e)
		g.Preds[to] = append(g.Preds[to], e)
	}

	// Register dependencies: for each instruction, look back for the most
	// recent writer of each used register (RAW), previous readers of the
	// written register (WAR) and the previous writer (WAW).
	lastWrite := map[ic.Reg]int{}   // reg → instruction index
	lastReads := map[ic.Reg][]int{} // reg → reader indexes since last write
	var lastBranch = -1             // most recent control op
	var lastSys = -1                // most recent sys escape
	var lastSysWrite = -1           // most recent sys escape that may write memory
	var stores []int                // store indexes
	var loads []int                 // load indexes
	branchesAbove := []int{}        // all control ops so far
	var scratch []ic.Reg

	for j := 0; j < n; j++ {
		in := &insts[j]

		// Register edges.
		scratch = in.Uses(scratch[:0])
		for _, r := range scratch {
			if i, ok := lastWrite[r]; ok {
				add(i, j, latencyOf(&insts[i], opts.MemLatency), RAW)
			}
			lastReads[r] = append(lastReads[r], j)
		}
		if d := in.Def(); d != ic.None {
			if i, ok := lastWrite[d]; ok {
				add(i, j, 1, WAW)
			}
			for _, i := range lastReads[d] {
				if i != j {
					add(i, j, 0, WAR)
				}
			}
			lastWrite[d] = j
			lastReads[d] = nil
		}

		// Memory edges.
		switch in.Op {
		case ic.Ld:
			for _, i := range stores {
				if mayAlias(&insts[i], in, opts.DisambiguateRegions) {
					add(i, j, 1, Mem)
				}
			}
			// ball_put fills the ball area and a raised fault abandons the
			// rest of the trace; neither has operands mayAlias could reason
			// about, so later memory traffic stays behind them. The other
			// escapes only read memory, so later loads may pass them.
			if lastSysWrite >= 0 {
				add(lastSysWrite, j, 1, Mem)
			}
			loads = append(loads, j)
		case ic.St:
			for _, i := range stores {
				if mayAlias(&insts[i], in, opts.DisambiguateRegions) {
					add(i, j, 1, Mem)
				}
			}
			for _, i := range loads {
				if mayAlias(in, &insts[i], opts.DisambiguateRegions) {
					add(i, j, 0, Mem) // load before store: same word is fine
				}
			}
			// A store after any escape is a memory write after its read
			// (write/1 prints the heap); after a writing escape it is also a
			// write after write. Escapes are totally ordered, so an edge
			// from the latest one covers every earlier one.
			if lastSys >= 0 {
				lat := 0
				if lastSys == lastSysWrite {
					lat = 1
				}
				add(lastSys, j, lat, Mem)
			}
			stores = append(stores, j)
		}

		switch in.Class() {
		case ic.ClassControl:
			// Branch-sequence constraint (§4.3): branches never reorder.
			if lastBranch >= 0 {
				add(lastBranch, j, 0, Ctrl)
			}
			// Instructions before a branch may sink below it only if the
			// branch's exit path cannot observe the difference — the same
			// dead-destination/no-side-effect rule as speculation. For
			// terminal controls (calls, returns, trailing jumps) everything
			// stays above.
			var live map[ic.Reg]bool
			cond := in.IsCondBranch()
			if cond && opts.OffLive != nil {
				live = opts.OffLive[j]
			}
			exitLat := opts.MemLatency - 1 - opts.BranchBubble
			if exitLat < 0 {
				exitLat = 0
			}
			for i := 0; i < j; i++ {
				if insts[i].Class() == ic.ClassControl {
					continue
				}
				if !cond || !speculable(&insts[i], live) {
					lat := 0
					if insts[i].Op == ic.Ld {
						lat = exitLat
					}
					add(i, j, lat, Order)
				}
			}
			lastBranch = j
			branchesAbove = append(branchesAbove, j)
		case ic.ClassSys:
			// Sys escapes have observable effects: keep their order, keep
			// them after stores (write/1 reads the heap), and behind the
			// last branch.
			if lastSys >= 0 {
				add(lastSys, j, 1, Order)
			}
			for _, i := range stores {
				add(i, j, 1, Mem)
			}
			for _, i := range loads {
				add(i, j, 0, Mem) // reads must not see the sys's memory writes
			}
			lastSys = j
			if in.Sys == ic.SysBallPut || in.Sys == ic.SysFault {
				lastSysWrite = j
			}
		}

		// Off-live speculation barriers: an instruction after a branch
		// needs an edge from every branch it may not cross.
		if in.Class() != ic.ClassControl {
			for _, b := range branchesAbove {
				var live map[ic.Reg]bool
				if opts.OffLive != nil {
					live = opts.OffLive[b]
				}
				if !insts[b].IsCondBranch() {
					// Unconditional trace-internal jumps (deleted later)
					// do not constrain motion; terminal controls end the
					// trace anyway.
					continue
				}
				if !speculable(in, live) {
					// Latency 1: every operation in a word issues even when
					// a branch in the same word is taken, so a non-
					// speculable operation must land strictly below the
					// branch's word.
					add(b, j, 1, OffLive)
				}
			}
		}
		// Sys must additionally stay behind sys-order via branches; the
		// Order edges above already pin them.
	}
	return g
}

// CriticalPath returns, for every node, the longest latency-weighted path
// from that node to any sink (used as the list-scheduling priority).
func (g *Graph) CriticalPath() []int {
	n := len(g.Insts)
	prio := make([]int, n)
	for j := n - 1; j >= 0; j-- {
		best := 0
		for _, e := range g.Succs[j] {
			edge := g.Edges[e]
			v := prio[edge.To] + edge.Latency
			if v > best {
				best = v
			}
		}
		prio[j] = best + 1
	}
	return prio
}
