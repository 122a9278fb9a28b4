package exec

import (
	"fmt"
	"math"
	"sort"

	"symbol/internal/fault"
	"symbol/internal/ic"
	"symbol/internal/wire"
	"symbol/internal/word"
)

// Snapshot encode/decode of the predecoded execution image. The whole
// point of shipping the image (instead of re-running Predecode at load) is
// the cold path, so the decoder must make the same guarantee Predecode
// makes implicitly: every field the hot loop consumes without bounds
// checks — operand registers, branch targets, region table indices — and
// every original pc it reports is proven in range before an executor ever
// sees the stream. Validation is against the accompanying ic.Program
// because the register file is sized from it and the pcs index its code; a
// structurally valid stream that disagrees with its program is still
// rejected.

// Per-op field-presence bits (varint mask). Op fields default to zero, so
// presence is simply "non-zero"; this keeps the common two-operand op at
// ~6 bytes.
const (
	xopHasD = 1 << iota
	xopHasA
	xopHasB
	xopHasD2
	xopHasA2
	xopHasImm
	xopHasImm2
	xopHasW
	xopHasTag
	xopHasRegion
	xopHasRegion2
	xopHasCond
	xopHasTarget
	xopHasPC
)

func appendOp(w *wire.Writer, op *Op, prevPC int32) {
	w.Byte(byte(op.Code))
	var mask uint64
	if op.D != 0 {
		mask |= xopHasD
	}
	if op.A != 0 {
		mask |= xopHasA
	}
	if op.B != 0 {
		mask |= xopHasB
	}
	if op.D2 != 0 {
		mask |= xopHasD2
	}
	if op.A2 != 0 {
		mask |= xopHasA2
	}
	if op.Imm != 0 {
		mask |= xopHasImm
	}
	if op.Imm2 != 0 {
		mask |= xopHasImm2
	}
	if op.W != 0 {
		mask |= xopHasW
	}
	if op.Tag != 0 {
		mask |= xopHasTag
	}
	if op.Region != ic.RegionUnknown {
		mask |= xopHasRegion
	}
	if op.Region2 != ic.RegionUnknown {
		mask |= xopHasRegion2
	}
	if op.Cond != 0 {
		mask |= xopHasCond
	}
	if op.Target != 0 {
		mask |= xopHasTarget
	}
	if op.PC != 0 {
		mask |= xopHasPC
	}
	w.U64(mask)
	if mask&xopHasD != 0 {
		w.I64(int64(op.D))
	}
	if mask&xopHasA != 0 {
		w.I64(int64(op.A))
	}
	if mask&xopHasB != 0 {
		w.I64(int64(op.B))
	}
	if mask&xopHasD2 != 0 {
		w.I64(int64(op.D2))
	}
	if mask&xopHasA2 != 0 {
		w.I64(int64(op.A2))
	}
	if mask&xopHasImm != 0 {
		w.I64(op.Imm)
	}
	if mask&xopHasImm2 != 0 {
		w.I64(op.Imm2)
	}
	// Tagged words as varints would always cost ten bytes (tag bits live
	// in the high byte); fixed width is smaller and decodes in one load.
	if mask&xopHasW != 0 {
		w.Bytes64(uint64(op.W))
	}
	if mask&xopHasTag != 0 {
		w.Byte(byte(op.Tag))
	}
	if mask&xopHasRegion != 0 {
		w.Byte(byte(op.Region))
	}
	if mask&xopHasRegion2 != 0 {
		w.Byte(byte(op.Region2))
	}
	if mask&xopHasCond != 0 {
		w.Byte(byte(op.Cond))
	}
	// Targets and pcs are near the op's own position, so both are encoded
	// relative to the previous op's pc: pcs are non-decreasing across a
	// stream (Predecode appends in pc order), making the pc delta a
	// one-byte unsigned value, and branch targets land close enough to
	// their branch that the zigzag delta is usually one byte too.
	if mask&xopHasTarget != 0 {
		w.I64(int64(op.Target) - int64(prevPC))
	}
	if mask&xopHasPC != 0 {
		w.U64(uint64(op.PC) - uint64(prevPC))
	}
}

func readOp(r *wire.Reader, op *Op, prevPC int32) {
	op.Code = XCode(r.Byte())
	mask := r.U64()
	if mask&xopHasD != 0 {
		op.D = ic.Reg(r.I64())
	}
	if mask&xopHasA != 0 {
		op.A = ic.Reg(r.I64())
	}
	if mask&xopHasB != 0 {
		op.B = ic.Reg(r.I64())
	}
	if mask&xopHasD2 != 0 {
		op.D2 = ic.Reg(r.I64())
	}
	if mask&xopHasA2 != 0 {
		op.A2 = ic.Reg(r.I64())
	}
	if mask&xopHasImm != 0 {
		op.Imm = r.I64()
	}
	if mask&xopHasImm2 != 0 {
		op.Imm2 = r.I64()
	}
	if mask&xopHasW != 0 {
		op.W = word.W(r.Bytes64())
	}
	if mask&xopHasTag != 0 {
		op.Tag = word.Tag(r.Byte())
	}
	if mask&xopHasRegion != 0 {
		op.Region = ic.Region(r.Byte())
	}
	if mask&xopHasRegion2 != 0 {
		op.Region2 = ic.Region(r.Byte())
	}
	if mask&xopHasCond != 0 {
		op.Cond = ic.Cond(r.Byte())
	}
	if mask&xopHasTarget != 0 {
		t := r.I64() + int64(prevPC)
		r.Expect(t >= math.MinInt32 && t <= math.MaxInt32)
		op.Target = int32(t)
	}
	if mask&xopHasPC != 0 {
		pc := int64(prevPC) + int64(r.U64())
		r.Expect(pc <= math.MaxInt32)
		op.PC = int32(pc)
	}
	// Width is derived, not transmitted: exactly the superinstructions are
	// two ICIs wide.
	op.Width = 1
	if op.Code.Fused() {
		op.Width = 2
	}
	r.Expect(mask < 1<<14)
}

func appendStream(w *wire.Writer, s *Stream) {
	w.Count(len(s.Ops))
	prevPC := int32(0)
	for i := range s.Ops {
		appendOp(w, &s.Ops[i], prevPC)
		prevPC = s.Ops[i].PC
	}
	// The pc map is -1 sentinels interleaved with a non-decreasing index
	// sequence (Predecode appends ops in pc order), so each entry is a
	// delta from the last real index: 0 encodes -1, v encodes prev+v-1.
	// Deltas are 0 or 1 in practice, making the whole map one byte per pc.
	w.Count(len(s.XOf))
	prev := int32(0)
	for _, x := range s.XOf {
		if x < 0 {
			w.Byte(0)
		} else {
			w.U64(uint64(x-prev) + 1)
			prev = x
		}
	}
	w.I64(int64(s.Entry))
	w.I64(int64(s.Throw))
	w.I64(int64(s.Fail))
	w.I64(int64(s.bad))
}

func readStream(r *wire.Reader, s *Stream) {
	n := r.Len(2) // code byte + mask byte minimum
	s.Ops = make([]Op, n)
	prevPC := int32(0)
	for i := range s.Ops {
		readOp(r, &s.Ops[i], prevPC)
		prevPC = s.Ops[i].PC
	}
	xn := r.Len(1)
	s.XOf = make([]int32, xn)
	prev := uint64(0)
	for i := range s.XOf {
		v := r.U64()
		if v == 0 {
			s.XOf[i] = -1
			continue
		}
		prev += v - 1
		// Accumulated indices must stay in int32 range before the cast;
		// validateStream then checks them against the real stream length.
		r.Expect(prev <= math.MaxInt32)
		if r.Err() != nil {
			return
		}
		s.XOf[i] = int32(prev)
	}
	s.Entry = int32(r.I64())
	s.Throw = int32(r.I64())
	s.Fail = int32(r.I64())
	s.bad = int32(r.I64())
}

// AppendProgram encodes the execution image (both streams plus the fusion
// stats). Stats map keys are sorted for a deterministic byte stream.
func AppendProgram(w *wire.Writer, xp *Program) {
	appendStream(w, &xp.Plain)
	appendStream(w, &xp.Fused)
	w.Int(xp.Stats.PlainOps)
	w.Int(xp.Stats.FusedOps)
	codes := make([]int, 0, len(xp.Stats.Pairs))
	for c := range xp.Stats.Pairs {
		codes = append(codes, int(c))
	}
	sort.Ints(codes)
	w.Count(len(codes))
	for _, c := range codes {
		w.Byte(byte(c))
		w.Int(xp.Stats.Pairs[XCode(c)])
	}
}

// DecodeProgram decodes an execution image and validates it against the
// ic.Program it claims to predecode. On success the image is safe for the
// emulator's unchecked hot loops; on any violation it returns an error and
// never panics.
func DecodeProgram(r *wire.Reader, p *ic.Program) (*Program, error) {
	xp := &Program{}
	readStream(r, &xp.Plain)
	readStream(r, &xp.Fused)
	xp.Stats.PlainOps = r.Int()
	xp.Stats.FusedOps = r.Int()
	pairCount := r.Len(2)
	xp.Stats.Pairs = make(map[XCode]int, pairCount)
	for i := 0; i < pairCount; i++ {
		c := XCode(r.Byte())
		xp.Stats.Pairs[c] = r.Int()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("exec: decode program: %w", err)
	}
	if err := ValidateProgram(xp, p); err != nil {
		return nil, err
	}
	return xp, nil
}

// Register-operand requirement bits per opcode: which Op fields the
// executors dereference into the register file. Derived from Decode1 and
// fusePair; TestNeedRegsMatchesPredecode locks the table to them.
const (
	needD = 1 << iota
	needA
	needB
	needD2
	needA2
)

var needRegs [NumCodes]uint8

func init() {
	set := func(mask uint8, cs ...XCode) {
		for _, c := range cs {
			needRegs[c] = mask
		}
	}
	set(needD|needA, XLd, XLdUndo, XMkTag, XGetTag, XLea, XMov, XMovCP,
		XAddI, XSubI, XMulI, XDivI, XModI, XAndI, XOrI, XXorI, XShlI, XShrI)
	set(needA|needB, XSt, XBrCmpEqR, XBrCmpNeR, XBrCmpOrdR)
	set(needD|needA|needB, XAddR, XSubR, XMulR, XDivR, XModR, XAndR, XOrR, XXorR, XShlR, XShrR)
	set(needD, XMovI, XJsr)
	set(needA, XBrTagEq, XBrTagNe, XBrCmpEqI, XBrCmpNeI, XBrCmpOrdI, XJmpR,
		XSysWrite, XSysWriteCode, XSysBallPut)
	set(needA|needB, XSysCompare)
	set(needD|needA|needD2, XFLdBrTagEq, XFLdBrTagNe, XFGetTagBrEqI, XFGetTagBrNeI,
		XFMovBrTagEq, XFMovBrTagNe)
	set(needD|needA|needD2|needA2, XFLdBrCmpEqR, XFLdBrCmpNeR, XFLdLd, XFLdMov, XFMovMov)
	set(needA|needB|needD2, XFStAdd, XFStMovI)
	set(needD|needA, XFMovJmp)
	set(needA|needB|needD2|needA2, XFCMovR)
	set(needA|needB|needA2|needD2, XFStSt)
	set(needD|needA2|needD2, XFMovISt)
}

// NeedRegs reports the register-operand requirement mask for an opcode
// (exported for the table-consistency test).
func NeedRegs(c XCode) uint8 {
	if c < NumCodes {
		return needRegs[c]
	}
	return 0
}

func validateStream(which string, s *Stream, maxReg ic.Reg, codeLen int) error {
	bad := func(x int, f string, args ...any) error {
		return fmt.Errorf("exec: %s stream op %d: %s: %w", which, x, fmt.Sprintf(f, args...), wire.ErrMalformed)
	}
	n := len(s.Ops)
	if n == 0 {
		return fmt.Errorf("exec: empty %s stream: %w", which, wire.ErrMalformed)
	}
	if len(s.XOf) != codeLen {
		return fmt.Errorf("exec: %s stream pc map has %d entries for %d ICIs: %w",
			which, len(s.XOf), codeLen, wire.ErrMalformed)
	}
	regOK := func(r ic.Reg) bool { return r >= 0 && r <= maxReg }
	for x := range s.Ops {
		op := &s.Ops[x]
		if op.Code >= NumCodes {
			return bad(x, "unknown opcode %d", op.Code)
		}
		if op.Tag >= word.NumTags {
			return bad(x, "tag %d out of range", op.Tag)
		}
		if op.Region > ic.RegionBall || op.Region2 > ic.RegionBall {
			return bad(x, "region %d/%d out of range", op.Region, op.Region2)
		}
		if op.Cond > ic.CondGe {
			return bad(x, "cond %d out of range", op.Cond)
		}
		need := needRegs[op.Code]
		if need&needD != 0 && !regOK(op.D) {
			return bad(x, "%s reg d=%d", op.Code, op.D)
		}
		if need&needA != 0 && !regOK(op.A) {
			return bad(x, "%s reg a=%d", op.Code, op.A)
		}
		if need&needB != 0 && !regOK(op.B) {
			return bad(x, "%s reg b=%d", op.Code, op.B)
		}
		if need&needD2 != 0 && !regOK(op.D2) {
			return bad(x, "%s reg d2=%d", op.Code, op.D2)
		}
		if need&needA2 != 0 && !regOK(op.A2) {
			return bad(x, "%s reg a2=%d", op.Code, op.A2)
		}
		if hasTarget(op.Code) && (op.Target < 0 || int(op.Target) >= n) {
			return bad(x, "%s target %d outside stream", op.Code, op.Target)
		}
		// A decoded stream comes from outside the program, so its original
		// pcs are checked too: the loop reports PC (PC+1 for a fused pair's
		// second constituent) as the fault location, and Jsr writes PC+1 as
		// the return address a later JmpR maps back through XOf. Both must
		// name real instructions. Trap ops legitimately carry PC == codeLen
		// (the fall-off-the-end pc).
		switch {
		case op.Code == XBadPC:
			if op.PC < 0 || int(op.PC) > codeLen {
				return bad(x, "trap pc %d out of range", op.PC)
			}
		case op.Width == 2:
			if op.PC < 0 || int(op.PC)+1 >= codeLen {
				return bad(x, "fused pc %d out of range", op.PC)
			}
		default:
			if op.PC < 0 || int(op.PC) >= codeLen {
				return bad(x, "pc %d out of range", op.PC)
			}
		}
		if op.Code == XSysFault && (op.Imm < 0 || op.Imm >= int64(fault.NumKinds)) {
			return bad(x, "fault kind %d out of range", op.Imm)
		}
	}
	for pc, x := range s.XOf {
		if x < -1 || int(x) >= n {
			return fmt.Errorf("exec: %s stream pc map [%d]=%d out of range: %w",
				which, pc, x, wire.ErrMalformed)
		}
	}
	if s.Entry < 0 || int(s.Entry) >= n {
		return fmt.Errorf("exec: %s stream entry %d out of range: %w", which, s.Entry, wire.ErrMalformed)
	}
	if s.Throw < -1 || int(s.Throw) >= n {
		return fmt.Errorf("exec: %s stream throw %d out of range: %w", which, s.Throw, wire.ErrMalformed)
	}
	if s.Fail < -1 || int(s.Fail) >= n {
		return fmt.Errorf("exec: %s stream fail %d out of range: %w", which, s.Fail, wire.ErrMalformed)
	}
	if s.bad < 0 || int(s.bad) >= n || s.Ops[s.bad].Code != XBadPC {
		return fmt.Errorf("exec: %s stream trap index %d invalid: %w", which, s.bad, wire.ErrMalformed)
	}
	return nil
}

// ValidateProgram checks the executor-safety invariants of a decoded
// execution image against the program whose register file it will share.
// Everything the unchecked hot loop indexes — operand registers (register
// file is sized from p.MaxReg), branch targets, the per-region limit
// table, fault-kind counters — and every original pc it reports is proven
// in range here.
func ValidateProgram(xp *Program, p *ic.Program) error {
	maxReg := p.MaxReg()
	if err := validateStream("plain", &xp.Plain, maxReg, len(p.Code)); err != nil {
		return err
	}
	if err := validateStream("fused", &xp.Fused, maxReg, len(p.Code)); err != nil {
		return err
	}
	for c := range xp.Stats.Pairs {
		if c >= NumCodes {
			return fmt.Errorf("exec: stats pair opcode %d out of range: %w", c, wire.ErrMalformed)
		}
	}
	return nil
}
