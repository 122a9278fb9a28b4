package ic

import (
	"fmt"
	"sort"

	"symbol/internal/fault"
	"symbol/internal/term"
	"symbol/internal/wire"
	"symbol/internal/word"
)

// MaxSnapshotReg caps the register numbers a decoded program may name.
// Executors size their register files from Program.MaxReg, so an untrusted
// snapshot naming register 2^40 would translate directly into a giant
// allocation; real compiled programs stay far below this.
const MaxSnapshotReg Reg = 1 << 20

// Per-instruction field-presence bits. Most ICIs use two or three fields,
// so a varint mask plus only the live fields beats a fixed record layout by
// ~3x on the benchmark corpus.
const (
	instHasD = 1 << iota
	instHasA
	instHasB
	instHasImm
	instImmFlag
	instHasWord
	instHasTag
	instHasCond
	instHasTarget
	instHasSys
	instHasRegion
	instHasMark
)

// AppendInst encodes one ICI at pc (targets are stored pc-relative).
func AppendInst(w *wire.Writer, in *Inst, pc int) {
	w.Byte(byte(in.Op))
	var mask uint64
	if in.D != None {
		mask |= instHasD
	}
	if in.A != None {
		mask |= instHasA
	}
	if in.B != None {
		mask |= instHasB
	}
	if in.Imm != 0 {
		mask |= instHasImm
	}
	if in.HasImm {
		mask |= instImmFlag
	}
	if in.Word != 0 {
		mask |= instHasWord
	}
	if in.Tag != 0 {
		mask |= instHasTag
	}
	if in.Cond != 0 {
		mask |= instHasCond
	}
	if in.Target != 0 {
		mask |= instHasTarget
	}
	if in.Sys != SysNone {
		mask |= instHasSys
	}
	if in.Reg != RegionUnknown {
		mask |= instHasRegion
	}
	if in.Mark != MarkNone {
		mask |= instHasMark
	}
	w.U64(mask)
	if mask&instHasD != 0 {
		w.I64(int64(in.D))
	}
	if mask&instHasA != 0 {
		w.I64(int64(in.A))
	}
	if mask&instHasB != 0 {
		w.I64(int64(in.B))
	}
	if mask&instHasImm != 0 {
		w.I64(in.Imm)
	}
	// Tagged words carry tag bits in the high byte, so as varints they
	// would always cost ten bytes and a ten-iteration decode loop; fixed
	// width is both smaller and faster.
	if mask&instHasWord != 0 {
		w.Bytes64(uint64(in.Word))
	}
	if mask&instHasTag != 0 {
		w.Byte(byte(in.Tag))
	}
	if mask&instHasCond != 0 {
		w.Byte(byte(in.Cond))
	}
	// Branch targets cluster near the branch itself, so they are encoded
	// relative to the instruction's own pc: the zigzag delta is usually a
	// single byte where the absolute pc would take two or three.
	if mask&instHasTarget != 0 {
		w.I64(int64(in.Target) - int64(pc))
	}
	if mask&instHasSys != 0 {
		w.Byte(byte(in.Sys))
	}
	if mask&instHasRegion != 0 {
		w.Byte(byte(in.Reg))
	}
	if mask&instHasMark != 0 {
		w.Byte(byte(in.Mark))
	}
}

// readInst decodes one ICI. Structural only — semantic validation happens
// in ValidateProgram once the whole code array and its length are known.
func readInst(r *wire.Reader, in *Inst, pc int) {
	in.Op = Op(r.Byte())
	mask := r.U64()
	in.D, in.A, in.B = None, None, None
	if mask&instHasD != 0 {
		in.D = Reg(r.I64())
	}
	if mask&instHasA != 0 {
		in.A = Reg(r.I64())
	}
	if mask&instHasB != 0 {
		in.B = Reg(r.I64())
	}
	if mask&instHasImm != 0 {
		in.Imm = r.I64()
	}
	in.HasImm = mask&instImmFlag != 0
	if mask&instHasWord != 0 {
		in.Word = word.W(r.Bytes64())
	}
	if mask&instHasTag != 0 {
		in.Tag = word.Tag(r.Byte())
	}
	if mask&instHasCond != 0 {
		in.Cond = Cond(r.Byte())
	}
	if mask&instHasTarget != 0 {
		t := r.I64() + int64(pc)
		r.Expect(int64(int(t)) == t)
		in.Target = int(t)
	}
	if mask&instHasSys != 0 {
		in.Sys = SysID(r.Byte())
	}
	if mask&instHasRegion != 0 {
		in.Reg = Region(r.Byte())
	}
	if mask&instHasMark != 0 {
		in.Mark = Mark(r.Byte())
	}
	r.Expect(mask < 1<<12)
}

// AppendProgram encodes the program image: code, atom table (in intern
// order — indices are baked into code immediates), entry points and symbol
// maps. Map sections are sorted so the encoding is deterministic; the
// snapshot cache keys on content hashes and byte-identical re-encodes are
// what make that sound.
func AppendProgram(w *wire.Writer, p *Program) {
	// An instruction encodes in 8.2–9.4 bytes across the corpus; the
	// symbol tables after the code are small beside it.
	w.Grow(10 * len(p.Code))
	w.Count(len(p.Code))
	for i := range p.Code {
		AppendInst(w, &p.Code[i], i)
	}

	atoms := p.Atoms.Ordered()
	w.Count(len(atoms))
	for _, name := range atoms {
		w.String(name)
	}

	w.Int(p.Entry)
	w.Int(p.FailPC)
	w.Int(p.ThrowPC)

	procs := make([]string, 0, len(p.Procs))
	for k := range p.Procs {
		procs = append(procs, k)
	}
	sort.Strings(procs)
	w.Count(len(procs))
	for _, k := range procs {
		w.String(k)
		w.Int(p.Procs[k])
	}

	namePCs := make([]int, 0, len(p.Names))
	for pc := range p.Names {
		namePCs = append(namePCs, pc)
	}
	sort.Ints(namePCs)
	w.Count(len(namePCs))
	for _, pc := range namePCs {
		w.Int(pc)
		w.String(p.Names[pc])
	}

	entryPCs := make([]int, 0, len(p.Entries))
	for pc := range p.Entries {
		entryPCs = append(entryPCs, pc)
	}
	sort.Ints(entryPCs)
	w.Count(len(entryPCs))
	for _, pc := range entryPCs {
		w.Int(pc)
	}
}

// DecodeProgram decodes and validates a program image. The returned
// program is safe to hand to the executors: every register the code can
// dereference is in range, every branch target and region annotation is in
// bounds, and the atom table reproduces the encoder's intern order. On any
// structural or semantic violation it returns an error and never panics.
func DecodeProgram(r *wire.Reader) (*Program, error) {
	p := &Program{}
	n := r.Len(2) // op byte + mask byte minimum per inst
	p.Code = make([]Inst, n)
	for i := range p.Code {
		readInst(r, &p.Code[i], i)
	}

	atomCount := r.Len(1)
	p.Atoms = term.NewTable()
	for i := 0; i < atomCount; i++ {
		name := r.String()
		if r.Err() != nil {
			break
		}
		// Interning must reproduce index i exactly: the pre-seeded atoms
		// ("[]", ".") must lead the stream and duplicates are impossible in
		// a faithful encoding, so a mismatch means corruption.
		if got := p.Atoms.Intern(name); int(got) != i {
			return nil, fmt.Errorf("ic: atom table order violated at %d (%q): %w", i, name, wire.ErrMalformed)
		}
	}

	p.Entry = r.Int()
	p.FailPC = r.Int()
	p.ThrowPC = r.Int()

	procCount := r.Len(2)
	p.Procs = make(map[string]int, procCount)
	for i := 0; i < procCount; i++ {
		k := r.String()
		p.Procs[k] = r.Int()
	}

	nameCount := r.Len(2)
	p.Names = make(map[int]string, nameCount)
	for i := 0; i < nameCount; i++ {
		pc := r.Int()
		p.Names[pc] = r.String()
	}

	entryCount := r.Len(1)
	p.Entries = make(map[int]bool, entryCount)
	for i := 0; i < entryCount; i++ {
		p.Entries[r.Int()] = true
	}

	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ic: decode program: %w", err)
	}
	if err := ValidateProgram(p); err != nil {
		return nil, err
	}
	return p, nil
}

// ValidateProgram checks the executor-safety invariants of a decoded
// program. The emulator dereferences operand registers without bounds
// checks (the register file is sized from MaxReg), indexes its per-region
// limit array directly by the Region annotation, jumps to Target without
// range checks, and raises the fault kind a SysFault names — so
// everything those paths touch is proven in range here, once, at load
// time. The predecoded streams exec.Predecode builds from a validated
// program inherit these guarantees, so they need no check of their own.
func ValidateProgram(p *Program) error {
	n := len(p.Code)
	if n == 0 {
		return fmt.Errorf("ic: empty code array: %w", wire.ErrMalformed)
	}
	bad := func(pc int, f string, args ...any) error {
		return fmt.Errorf("ic: inst %d: %s: %w", pc, fmt.Sprintf(f, args...), wire.ErrMalformed)
	}
	regOK := func(r Reg) bool { return r >= 0 && r <= MaxSnapshotReg }
	pcOK := func(pc int) bool { return pc >= 0 && pc < n }

	for pc := range p.Code {
		in := &p.Code[pc]
		if in.Op > SysOp {
			return bad(pc, "unknown opcode %d", in.Op)
		}
		if in.Tag >= word.NumTags {
			return bad(pc, "tag %d out of range", in.Tag)
		}
		if in.Cond > CondGe {
			return bad(pc, "cond %d out of range", in.Cond)
		}
		if in.Reg > RegionBall {
			return bad(pc, "region %d out of range", in.Reg)
		}
		if in.Mark > MarkTrailUndo {
			return bad(pc, "mark %d out of range", in.Mark)
		}
		switch in.Op {
		case Nop, Halt:
			// no operands
		case Ld:
			if !regOK(in.D) || !regOK(in.A) {
				return bad(pc, "ld regs d=%d a=%d", in.D, in.A)
			}
		case St:
			if !regOK(in.A) || !regOK(in.B) {
				return bad(pc, "st regs a=%d b=%d", in.A, in.B)
			}
		case Add, Sub, Mul, Div, Mod, And, Or, Xor, Shl, Shr:
			if !regOK(in.D) || !regOK(in.A) {
				return bad(pc, "alu regs d=%d a=%d", in.D, in.A)
			}
			if !in.HasImm && !regOK(in.B) {
				return bad(pc, "alu reg b=%d", in.B)
			}
		case MkTag, GetTag, Lea, Mov:
			if !regOK(in.D) || !regOK(in.A) {
				return bad(pc, "regs d=%d a=%d", in.D, in.A)
			}
		case MovI:
			if !regOK(in.D) {
				return bad(pc, "movi reg d=%d", in.D)
			}
		case BrTag:
			if !regOK(in.A) {
				return bad(pc, "brtag reg a=%d", in.A)
			}
			if !pcOK(in.Target) {
				return bad(pc, "brtag target %d", in.Target)
			}
		case BrCmp:
			if !regOK(in.A) {
				return bad(pc, "brcmp reg a=%d", in.A)
			}
			if !in.HasImm && !regOK(in.B) {
				return bad(pc, "brcmp reg b=%d", in.B)
			}
			if !pcOK(in.Target) {
				return bad(pc, "brcmp target %d", in.Target)
			}
		case Jmp:
			if !pcOK(in.Target) {
				return bad(pc, "jmp target %d", in.Target)
			}
		case JmpR:
			if !regOK(in.A) {
				return bad(pc, "jmpr reg a=%d", in.A)
			}
		case Jsr:
			if !regOK(in.D) {
				return bad(pc, "jsr reg d=%d", in.D)
			}
			if !pcOK(in.Target) {
				return bad(pc, "jsr target %d", in.Target)
			}
		case SysOp:
			if in.Sys > SysFault {
				return bad(pc, "sys id %d out of range", in.Sys)
			}
			switch in.Sys {
			case SysWrite, SysWriteCode, SysBallPut:
				if !regOK(in.A) {
					return bad(pc, "sys %s reg a=%d", in.Sys, in.A)
				}
			case SysCompare:
				if !regOK(in.A) || !regOK(in.B) {
					return bad(pc, "sys compare regs a=%d b=%d", in.A, in.B)
				}
			case SysFault:
				// Both executors raise fault.Kind(Imm); None or a kind past
				// the enumeration would surface as an untyped fault.
				if in.Imm < 1 || in.Imm >= int64(fault.NumKinds) {
					return bad(pc, "fault kind %d out of range", in.Imm)
				}
			}
		}
	}
	if !pcOK(p.Entry) {
		return fmt.Errorf("ic: entry pc %d out of range: %w", p.Entry, wire.ErrMalformed)
	}
	if !pcOK(p.FailPC) {
		return fmt.Errorf("ic: fail pc %d out of range: %w", p.FailPC, wire.ErrMalformed)
	}
	if !pcOK(p.ThrowPC) {
		return fmt.Errorf("ic: throw pc %d out of range: %w", p.ThrowPC, wire.ErrMalformed)
	}
	for k, pc := range p.Procs {
		if !pcOK(pc) {
			return fmt.Errorf("ic: proc %q pc %d out of range: %w", k, pc, wire.ErrMalformed)
		}
	}
	for pc := range p.Names {
		if !pcOK(pc) {
			return fmt.Errorf("ic: name pc %d out of range: %w", pc, wire.ErrMalformed)
		}
	}
	for pc := range p.Entries {
		if !pcOK(pc) {
			return fmt.Errorf("ic: entry-point pc %d out of range: %w", pc, wire.ErrMalformed)
		}
	}
	return nil
}
