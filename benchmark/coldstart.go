package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"symbol"
	"symbol/internal/bam"
	"symbol/internal/benchprog"
	"symbol/internal/compile"
	"symbol/internal/emu"
	"symbol/internal/exec"
	"symbol/internal/expand"
	"symbol/internal/ic"
	"symbol/internal/parse"
	"symbol/internal/rename"
	"symbol/internal/snapshot"
)

// The cold-start mix: each round compiles every corpus program from source
// once and boots its snapshot bootsPerCompile times; a pass is coldRounds
// rounds, enough large-program compiles for its tail to fall among them.
const (
	bootsPerCompile = 3
	coldRounds      = 5
)

// coldStart takes corpus programs from bytes to ready-to-run: a source
// compile (symbol.Load, exec.Of, Program.Snapshot, as symbolc -o and a
// snapshot-cache miss do) or a snapshot boot (symbol.Load of .sym bytes).
type coldStart struct {
	o     *options
	progs []*benchprog.Benchmark
	snaps map[string][]byte // made during set-up
	st    *ic.State         // reused by the output check
	rows  map[string]*compileRow
}

// compileRow is one program's line in the traced report.
type compileRow struct {
	Prog          string  `json:"prog"`
	ParseMs       float64 `json:"parse_ms"`
	CompileMs     float64 `json:"compile_ms"`
	ExpandMs      float64 `json:"expand_ms"`
	RenameMs      float64 `json:"rename_ms"`
	PredecodeMs   float64 `json:"predecode_ms"`
	EncodeMs      float64 `json:"snapshot_encode_ms"`
	DecodeMs      float64 `json:"snapshot_decode_ms"`
	BAMInstrs     int     `json:"bam_instrs"`
	ExpandInstrs  int     `json:"expand_ici_instrs"`
	RenameInstrs  int     `json:"rename_ici_instrs"`
	FusedOps      int     `json:"fused_ops"`
	SnapshotBytes int     `json:"snapshot_bytes"`
	CompileKB     float64 `json:"alloc_kb_per_compile"`
	BootKB        float64 `json:"alloc_kb_per_boot"`
}

func setupColdStart(ctx context.Context, o *options) (bench, error) {
	c := &coldStart{o: o, progs: benchprog.All(), snaps: map[string][]byte{}, st: ic.NewState(), rows: map[string]*compileRow{}}
	for _, b := range c.progs {
		p, err := symbol.Load(ctx, []byte(b.Source))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		exec.Of(p.IC())
		c.snaps[b.Name] = p.Snapshot()
	}
	// Warm-up: one boot of every snapshot, untimed.
	for _, b := range c.progs {
		if _, err := symbol.Load(ctx, c.snaps[b.Name]); err != nil {
			return nil, fmt.Errorf("%s boot: %w", b.Name, err)
		}
	}
	return c, nil
}

func (c *coldStart) close() {}

type coldOp struct {
	boot bool
	prog *benchprog.Benchmark
}

// outcome is what an operation produced, checked after the pass's timed
// section so the check's emulator runs are not timed.
type outcome struct {
	prog *benchprog.Benchmark
	icp  *ic.Program
	err  error
}

func (c *coldStart) ops(rng *rand.Rand) []coldOp {
	var ops []coldOp
	for r := 0; r < coldRounds; r++ {
		for _, b := range c.progs {
			ops = append(ops, coldOp{prog: b})
			for i := 0; i < bootsPerCompile; i++ {
				ops = append(ops, coldOp{boot: true, prog: b})
			}
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	if c.o.opsPerPass > 0 && c.o.opsPerPass < len(ops) {
		ops = ops[:c.o.opsPerPass]
	}
	return ops
}

func (c *coldStart) pass(ctx context.Context, rng *rand.Rand, ph *phase, tr *tracer) error {
	ops := c.ops(rng)
	outs := make([]outcome, len(ops))
	durs := make([]time.Duration, len(ops))
	sec := ph.begin()
	for i, op := range ops {
		start := time.Now()
		switch {
		case op.boot:
			outs[i] = c.boot(ctx, op.prog, tr)
		case tr != nil:
			outs[i] = c.compileLayers(op.prog, tr)
		default:
			outs[i] = c.compile(ctx, op.prog)
		}
		durs[i] = time.Since(start)
	}
	ph.end(sec)
	for i, op := range ops {
		class := "compile"
		if op.boot {
			class = "boot"
		}
		ph.record(class, op.prog.Name, durs[i], c.check(outs[i]) == nil)
	}
	return nil
}

// compile is the untraced source compile: what symbolc -o does.
func (c *coldStart) compile(ctx context.Context, b *benchprog.Benchmark) outcome {
	p, err := symbol.Load(ctx, []byte(b.Source))
	if err != nil {
		return outcome{prog: b, err: err}
	}
	exec.Of(p.IC())
	if snap := p.Snapshot(); !symbol.IsSnapshot(snap) {
		return outcome{prog: b, err: fmt.Errorf("snapshot lacks its magic")}
	}
	return outcome{prog: b, icp: p.IC()}
}

// compileLayers is the traced source compile: the same work as compile,
// driven layer by layer so each layer's call gets a span. Every layer gets
// the fresh output of the layer before it (rename.Fold rewrites its input
// in place, so re-timing it on a reused input would measure the wrong
// thing).
func (c *coldStart) compileLayers(b *benchprog.Benchmark, tr *tracer) outcome {
	op := tr.newOp()
	root := tr.begin(op, spanRef{}, "op.compile", b.Name)
	defer root.end()
	fail := func(err error) outcome { return outcome{prog: b, err: err} }

	s := tr.begin(op, root, "parse", b.Name)
	clauses, err := parse.All(b.Source)
	s.end()
	if err != nil {
		return fail(err)
	}
	s = tr.begin(op, root, "compile", b.Name)
	cc := compile.New(compile.Options{ArithChecks: true})
	err = cc.AddProgram(clauses)
	var unit *bam.Unit
	if err == nil {
		unit, err = cc.Compile()
	}
	s.end()
	if err != nil {
		return fail(err)
	}
	s = tr.begin(op, root, "expand", b.Name)
	icp, err := expand.Translate(unit, cc.Atoms())
	s.end()
	if err != nil {
		return fail(err)
	}
	expanded := len(icp.Code)
	s = tr.begin(op, root, "rename", b.Name)
	icp = rename.Fold(icp)
	s.end()
	s = tr.begin(op, root, "exec.predecode", b.Name)
	xp := exec.Predecode(icp)
	s.end()
	icp.ExecCache(func() any { return xp })

	var undef []string
	for _, pi := range cc.Undefined() {
		undef = append(undef, pi.String())
	}
	s = tr.begin(op, root, "snapshot.encode", b.Name)
	snap := snapshot.Encode(&snapshot.Image{
		Kind: snapshot.KindProgram, Source: b.Source, Arith: true,
		Undefined: undef, Prog: icp, Exec: xp,
	})
	s.end()

	row := c.row(b.Name)
	row.BAMInstrs = len(unit.Code)
	row.ExpandInstrs = expanded
	row.RenameInstrs = len(icp.Code)
	row.FusedOps = xp.Stats.FusedOps
	row.SnapshotBytes = len(snap)
	return outcome{prog: b, icp: icp}
}

func (c *coldStart) boot(ctx context.Context, b *benchprog.Benchmark, tr *tracer) outcome {
	op := tr.newOp()
	s := tr.begin(op, spanRef{}, "op.boot", b.Name)
	p, err := symbol.Load(ctx, c.snaps[b.Name])
	s.end()
	if err != nil {
		return outcome{prog: b, err: err}
	}
	return outcome{prog: b, icp: p.IC()}
}

func (c *coldStart) row(name string) *compileRow {
	r := c.rows[name]
	if r == nil {
		r = &compileRow{Prog: name}
		c.rows[name] = r
	}
	return r
}

// check runs the program an operation produced to completion on the
// default core and compares its output with the benchprog Expect string.
func (c *coldStart) check(out outcome) error {
	if out.err != nil {
		return out.err
	}
	defer c.st.Reset()
	res, err := emu.Run(out.icp, emu.Options{State: c.st})
	if err != nil {
		return err
	}
	if res.Status != 0 || res.Output != c.o.expect[out.prog.Name] {
		return fmt.Errorf("%s: output %q, want %q", out.prog.Name, res.Output, c.o.expect[out.prog.Name])
	}
	return nil
}

func (c *coldStart) layers(ctx context.Context, tr *tracer) (map[string]metric, any, error) {
	names := map[string]func(r *compileRow, ms float64){
		"parse":           func(r *compileRow, v float64) { r.ParseMs = v },
		"compile":         func(r *compileRow, v float64) { r.CompileMs = v },
		"expand":          func(r *compileRow, v float64) { r.ExpandMs = v },
		"rename":          func(r *compileRow, v float64) { r.RenameMs = v },
		"exec.predecode":  func(r *compileRow, v float64) { r.PredecodeMs = v },
		"snapshot.encode": func(r *compileRow, v float64) { r.EncodeMs = v },
		"op.boot":         func(r *compileRow, v float64) { r.DecodeMs = v },
	}
	for name, set := range names {
		for prog, a := range tr.byProg(name) {
			set(c.row(prog), a.medianMs())
		}
	}
	for prog, a := range tr.byProg("op.compile") {
		c.row(prog).CompileKB = float64(a.alloc) / 1024 / float64(a.n)
	}
	for prog, a := range tr.byProg("op.boot") {
		c.row(prog).BootKB = float64(a.alloc) / 1024 / float64(a.n)
	}

	var bam, exp, ren, ratio, bytes []float64
	rows := make([]*compileRow, 0, len(c.rows))
	for _, name := range sortedKeys(c.rows) {
		r := c.rows[name]
		rows = append(rows, r)
		if r.RenameInstrs == 0 {
			continue
		}
		bam = append(bam, float64(r.BAMInstrs))
		exp = append(exp, float64(r.ExpandInstrs))
		ren = append(ren, float64(r.RenameInstrs))
		ratio = append(ratio, float64(r.FusedOps)/float64(r.RenameInstrs))
		bytes = append(bytes, float64(r.SnapshotBytes))
	}
	m := map[string]metric{
		"parse.ms_per_op":           {tr.geoMs("parse"), "ms"},
		"compile.ms_per_op":         {tr.geoMs("compile"), "ms"},
		"expand.ms_per_op":          {tr.geoMs("expand"), "ms"},
		"rename.ms_per_op":          {tr.geoMs("rename"), "ms"},
		"exec.predecode_ms_per_op":  {tr.geoMs("exec.predecode"), "ms"},
		"snapshot.encode_ms_per_op": {tr.geoMs("snapshot.encode"), "ms"},
		"snapshot.decode_ms_per_op": {tr.geoMs("op.boot"), "ms"},
		"compile.bam_instrs":        {geomean(bam), "count"},
		"expand.ici_instrs":         {geomean(exp), "count"},
		"rename.ici_instrs":         {geomean(ren), "count"},
		"exec.fused_op_ratio":       {geomean(ratio), "ratio"},
		"snapshot.bytes":            {geomean(bytes), "bytes"},
	}
	return m, withGeomean(rows), nil
}
