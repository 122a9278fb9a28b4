package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"symbol/internal/benchprog"
	"symbol/internal/emu"
	"symbol/internal/exec"
	"symbol/internal/fault"
	"symbol/internal/faultsim"
	"symbol/internal/ic"
	"symbol/internal/term"
	"symbol/internal/word"
)

// tinyProg builds a small but representative ic.Program by hand: an
// immediate move, an ALU op, a branch, a syscall, a halt — enough to
// exercise most presence bits in the instruction encoding.
func tinyProg() *ic.Program {
	atoms := term.NewTable()
	atoms.Intern("foo")
	t0 := ic.Reg(ic.FirstTemp)
	t1 := ic.Reg(ic.FirstTemp + 1)
	return &ic.Program{
		Code: []ic.Inst{
			{Op: ic.MovI, D: t0, Word: word.MakeInt(42)},
			{Op: ic.Add, D: t1, A: t0, HasImm: true, Imm: 1},
			{Op: ic.BrCmp, A: t1, B: t0, Cond: ic.CondEq, Target: 4},
			{Op: ic.SysOp, Sys: ic.SysNl},
			{Op: ic.Halt},
		},
		Atoms:   atoms,
		Procs:   map[string]int{"main/0": 0},
		Names:   map[int]string{0: "main/0"},
		Entries: map[int]bool{0: true},
	}
}

func tinyImage() *Image {
	p := tinyProg()
	return &Image{
		Kind:       KindProgram,
		Source:     "main.\n",
		Arith:      true,
		MaxSteps:   123,
		Undefined:  []string{"missing/1"},
		Prog:       p,
		ProfExpect: []int64{1, 1, 1, 1, 1},
		ProfTaken:  []int64{0, 0, 1, 0, 0},
	}
}

func TestRoundTrip(t *testing.T) {
	img := tinyImage()
	data := Encode(img)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Kind != img.Kind || got.Source != img.Source || got.Goal != img.Goal ||
		got.Arith != img.Arith || got.MaxSteps != img.MaxSteps {
		t.Errorf("meta mismatch: got %+v", got)
	}
	if !reflect.DeepEqual(got.Undefined, img.Undefined) {
		t.Errorf("undefined = %v, want %v", got.Undefined, img.Undefined)
	}
	if !reflect.DeepEqual(got.Prog.Code, img.Prog.Code) {
		t.Errorf("code mismatch:\ngot  %v\nwant %v", got.Prog.Code, img.Prog.Code)
	}
	if !reflect.DeepEqual(got.Prog.Atoms.Ordered(), img.Prog.Atoms.Ordered()) {
		t.Errorf("atoms = %v, want %v", got.Prog.Atoms.Ordered(), img.Prog.Atoms.Ordered())
	}
	if got.Prog.Entry != img.Prog.Entry || got.Prog.FailPC != img.Prog.FailPC || got.Prog.ThrowPC != img.Prog.ThrowPC {
		t.Errorf("entry/fail/throw mismatch")
	}
	if !reflect.DeepEqual(got.Prog.Procs, img.Prog.Procs) ||
		!reflect.DeepEqual(got.Prog.Names, img.Prog.Names) ||
		!reflect.DeepEqual(got.Prog.Entries, img.Prog.Entries) {
		t.Errorf("symbol maps mismatch")
	}
	want := exec.Predecode(img.Prog)
	if !reflect.DeepEqual(got.Exec.Plain(), want.Plain()) {
		t.Errorf("plain stream mismatch")
	}
	if !reflect.DeepEqual(got.Exec.Fused, want.Fused) {
		t.Errorf("fused stream mismatch")
	}
	if !reflect.DeepEqual(got.Exec.Stats, want.Stats) {
		t.Errorf("stats = %+v, want %+v", got.Exec.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.ProfExpect, img.ProfExpect) || !reflect.DeepEqual(got.ProfTaken, img.ProfTaken) {
		t.Errorf("profile mismatch")
	}
}

// typedSnapshotError reports whether err belongs to one of the package's
// documented error families — the load contract Load's callers match on.
func typedSnapshotError(err error) bool {
	var fe *FormatError
	var ce *ChecksumError
	var ve *VersionError
	return errors.Is(err, ErrNotSnapshot) || errors.As(err, &fe) || errors.As(err, &ce) || errors.As(err, &ve)
}

// TestEveryByteFlipDetected corrupts each byte of a valid container in
// turn. Every flip must surface as a typed error — magic flips as
// ErrNotSnapshot, version flips as VersionError, everything else through a
// CRC (section payloads and the table are both covered, and CRC32 detects
// all single-byte errors). Nothing may panic.
func TestEveryByteFlipDetected(t *testing.T) {
	orig := Encode(tinyImage())
	for i := range orig {
		data := append([]byte(nil), orig...)
		data[i] ^= 0x41
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("byte %d: Decode panicked: %v", i, r)
				}
			}()
			img, err := Decode(data)
			if err == nil {
				t.Fatalf("byte %d: corruption not detected (img=%+v)", i, img)
			}
			if !typedSnapshotError(err) {
				t.Fatalf("byte %d: untyped error %T: %v", i, err, err)
			}
		}()
	}
}

// TestEveryTruncationDetected decodes every proper prefix of a valid
// container: all must error, none may panic.
func TestEveryTruncationDetected(t *testing.T) {
	orig := Encode(tinyImage())
	for n := 0; n < len(orig); n++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("prefix %d: Decode panicked: %v", n, r)
				}
			}()
			if _, err := Decode(orig[:n]); err == nil {
				t.Fatalf("prefix %d of %d: truncation not detected", n, len(orig))
			} else if !typedSnapshotError(err) {
				t.Fatalf("prefix %d: untyped error %T: %v", n, err, err)
			}
		}()
	}
}

// fixCRCs recomputes every section CRC and the table CRC in place, so a
// test can corrupt payload bytes and still get past the checksum layer to
// the structural validators beneath it.
func fixCRCs(data []byte) {
	count := binary.LittleEndian.Uint32(data[12:16])
	for i := 0; i < int(count); i++ {
		e := headerLen + entryLen*i
		off := binary.LittleEndian.Uint64(data[e+4 : e+12])
		ln := binary.LittleEndian.Uint64(data[e+12 : e+20])
		crc := crc32.Checksum(data[off:off+ln], castagnoli)
		binary.LittleEndian.PutUint32(data[e+20:e+24], crc)
	}
	tableEnd := headerLen + entryLen*int(count)
	binary.LittleEndian.PutUint32(data[tableEnd:tableEnd+4],
		crc32.Checksum(data[12:tableEnd], castagnoli))
}

// TestStructuralCorruptionContained flips each payload byte and repairs
// the checksums, driving the corruption into the structural validators
// (instruction decoding, operand range checks, cross-section consistency).
// Some flips are semantically benign and decode fine; what is forbidden is
// a panic or an untyped error.
func TestStructuralCorruptionContained(t *testing.T) {
	orig := Encode(tinyImage())
	payloadStart := 0
	{
		count := binary.LittleEndian.Uint32(orig[12:16])
		payloadStart = headerLen + entryLen*int(count) + 4
	}
	for i := payloadStart; i < len(orig); i++ {
		for _, bit := range []byte{0x01, 0x80, 0xff} {
			data := append([]byte(nil), orig...)
			data[i] ^= bit
			fixCRCs(data)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("byte %d ^ %#x: Decode panicked: %v", i, bit, r)
					}
				}()
				if _, err := Decode(data); err != nil && !typedSnapshotError(err) {
					t.Fatalf("byte %d ^ %#x: untyped error %T: %v", i, bit, err, err)
				}
			}()
		}
	}
}

// TestVersionSkewRecovery bumps the format version and checks that Decode
// returns a *VersionError carrying the recovered compile inputs — the fuel
// for Load's recompile fallback. The header and meta/source encodings are
// frozen across versions precisely so this recovery works.
func TestVersionSkewRecovery(t *testing.T) {
	data := Encode(tinyImage())
	data[8]++ // version is little-endian at offset 8, outside the table CRC
	_, err := Decode(data)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("Decode = %v, want *VersionError", err)
	}
	if ve.Got != Version+1 || ve.Want != Version {
		t.Errorf("got/want = %d/%d, want %d/%d", ve.Got, ve.Want, Version+1, Version)
	}
	if ve.Source != "main.\n" || ve.Kind != KindProgram || !ve.Arith || ve.MaxSteps != 123 {
		t.Errorf("recovered inputs = %+v", ve)
	}
}

func TestReadInfo(t *testing.T) {
	data := Encode(tinyImage())
	info, err := ReadInfo(data)
	if err != nil {
		t.Fatalf("ReadInfo: %v", err)
	}
	if info.Version != Version {
		t.Errorf("version = %d, want %d", info.Version, Version)
	}
	want := []string{"meta", "source", "program", "profile"}
	if len(info.Sections) != len(want) {
		t.Fatalf("sections = %v, want %v", info.Sections, want)
	}
	for i, s := range info.Sections {
		if s.Name != want[i] {
			t.Errorf("section %d = %q, want %q", i, s.Name, want[i])
		}
		if s.Len <= 0 && s.Name != "source" {
			t.Errorf("section %s has size %d", s.Name, s.Len)
		}
	}
	// ReadInfo must also summarize what it cannot load.
	data[8]++
	info, err = ReadInfo(data)
	if err != nil || info.Version != Version+1 {
		t.Errorf("skewed ReadInfo = %+v, %v", info, err)
	}
	if _, err := ReadInfo([]byte("not a snapshot")); !errors.Is(err, ErrNotSnapshot) {
		t.Errorf("ReadInfo on text = %v, want ErrNotSnapshot", err)
	}
}

func TestSniff(t *testing.T) {
	if !Sniff(Encode(tinyImage())) {
		t.Error("Sniff rejects a valid snapshot")
	}
	for _, s := range []string{"", "main :- true.", Magic[:4], "SYMSNAP"} {
		if Sniff([]byte(s)) {
			t.Errorf("Sniff accepts %q", s)
		}
	}
}

// faultImage is tinyImage with its syscall replaced by a SysFault that
// raises kind k.
func faultImage(k int64) *Image {
	img := tinyImage()
	img.Prog.Code[3] = ic.Inst{Op: ic.SysOp, Sys: ic.SysFault, A: ic.None, B: ic.None, Imm: k}
	return img
}

// TestFaultKindValidated: a SysFault naming fault.None or a kind past the
// enumeration must not decode. Both executors raise fault.Kind(Imm), and
// such a kind would reach the caller as an error whose *fault.Fault is nil,
// which fault.KindOf dereferences.
func TestFaultKindValidated(t *testing.T) {
	if _, err := Decode(Encode(faultImage(int64(fault.HeapOverflow)))); err != nil {
		t.Fatalf("valid fault kind rejected: %v", err)
	}
	for _, k := range []int64{int64(fault.None), 99} {
		t.Run(fmt.Sprintf("kind%d", k), func(t *testing.T) {
			_, err := Decode(Encode(faultImage(k)))
			var fe *FormatError
			if !errors.As(err, &fe) || fe.Section != "program" {
				t.Fatalf("Decode = %v, want a program *FormatError", err)
			}
		})
	}
}

// installExec hands the image's predecoded streams to its program, as
// symbol.Load does, so runs execute the streams Decode built.
func installExec(img *Image) *ic.Program {
	img.Prog.ExecCache(func() any { return img.Exec })
	return img.Prog
}

// paths are the executor configurations a decoded program must run on.
var paths = []struct {
	name string
	opts emu.Options
}{
	{"fused", emu.Options{}},
	{"plain", emu.Options{NoFuse: true}},
	{"legacy", emu.Options{Legacy: true}},
}

// sameRuns runs got and want on every path in st and requires the same
// status, output and step count.
func sameRuns(t *testing.T, got, want *ic.Program, st *ic.State) {
	t.Helper()
	for _, p := range paths {
		opts := p.opts
		opts.State = st
		g, gErr := emu.Run(got, opts)
		st.Reset()
		w, wErr := emu.Run(want, opts)
		st.Reset()
		if gErr != nil || wErr != nil {
			t.Fatalf("%s: run errors %v / %v", p.name, gErr, wErr)
		}
		if g.Status != w.Status || g.Output != w.Output || g.Steps != w.Steps {
			t.Errorf("%s: got status %d steps %d output %q, want status %d steps %d output %q",
				p.name, g.Status, g.Steps, g.Output, w.Status, w.Steps, w.Output)
		}
	}
}

// TestDecodeSkipsExecSection: snapshots written before Encode stopped
// shipping the predecoded streams carry them as section 4. Decode must
// skip that section unread (the payload here is bytes no stream codec ever
// accepted) and rebuild the streams from the program, and the result must
// run like the compile it was taken from.
func TestDecodeSkipsExecSection(t *testing.T) {
	b, err := benchprog.Get("qsort")
	if err != nil {
		t.Fatal(err)
	}
	u, err := faultsim.Compile(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	data := Encode(&Image{Kind: KindProgram, Source: b.Source, Arith: true, Prog: u.IC})
	secs, _, err := parseTable(data)
	if err != nil {
		t.Fatal(err)
	}
	type sec = struct {
		id      uint32
		payload []byte
	}
	var withExec []sec
	for _, s := range secs {
		withExec = append(withExec, sec{s.id, data[s.off : s.off+s.ln]})
		if s.id == SecProgram {
			withExec = append(withExec, sec{SecExec, bytes.Repeat([]byte{0xff}, 64)})
		}
	}
	old := appendSections(Version, withExec)
	info, err := ReadInfo(old)
	if err != nil || len(info.Sections) != 4 || info.Sections[3].Name != "exec" {
		t.Fatalf("ReadInfo = %+v, %v; want an exec section last", info, err)
	}
	img, err := Decode(old)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	want := exec.Predecode(img.Prog)
	if !reflect.DeepEqual(img.Exec.Plain(), want.Plain()) || !reflect.DeepEqual(img.Exec.Fused, want.Fused) {
		t.Error("Decode's streams differ from Predecode of the decoded program")
	}
	sameRuns(t, installExec(img), u.IC, ic.NewState())
}

// TestDecodeStreamShippingSnapshot decodes testdata/exec-section.sym, a
// snapshot of a small program written by the encoder that still shipped
// the predecoded streams (4637 of its 7377 bytes). It must load and run
// like a fresh compile of its embedded source.
func TestDecodeStreamShippingSnapshot(t *testing.T) {
	data, err := os.ReadFile("testdata/exec-section.sym")
	if err != nil {
		t.Fatal(err)
	}
	info, err := ReadInfo(data)
	if err != nil {
		t.Fatalf("ReadInfo: %v", err)
	}
	var names []string
	for _, s := range info.Sections {
		names = append(names, s.Name)
	}
	if !reflect.DeepEqual(names, []string{"meta", "source", "program", "exec"}) {
		t.Fatalf("sections = %v", names)
	}
	img, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	u, err := faultsim.Compile(img.Source)
	if err != nil {
		t.Fatal(err)
	}
	sameRuns(t, installExec(img), u.IC, ic.NewState())
}

// FuzzSnapshotLoad feeds arbitrary bytes to Decode, both raw and with
// checksums repaired (so the fuzzer can reach the structural validators
// behind the CRC layer). The contract under test: typed errors, never a
// panic, on any input. Every image Decode accepts is then run on the
// fused, plain and legacy paths under a small step budget: boot trusts
// what Decode validated and predecoded, so running it must not panic
// either, and every error a run returns must be one fault.KindOf
// classifies.
func FuzzSnapshotLoad(f *testing.F) {
	valid := Encode(tinyImage())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	skew := append([]byte(nil), valid...)
	skew[8]++
	f.Add(skew)
	f.Add([]byte(Magic))
	f.Add([]byte("main :- true."))
	f.Add(Encode(faultImage(int64(fault.None))))
	f.Add(Encode(faultImage(99)))
	st := ic.NewState()
	load := func(t *testing.T, data []byte) {
		img, err := Decode(data)
		if err != nil {
			if !typedSnapshotError(err) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		prog := installExec(img)
		for _, p := range paths {
			opts := p.opts
			opts.State = st
			opts.MaxSteps = 64
			_, err := emu.Run(prog, opts)
			st.Reset()
			if err != nil && fault.KindOf(err) >= fault.NumKinds {
				t.Fatalf("%s: unclassified run error: %v", p.name, err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		load(t, data)
		// Second pass with repaired checksums, when the container is
		// well-formed enough to carry a table.
		if len(data) >= headerLen+4 && Sniff(data) {
			count := binary.LittleEndian.Uint32(data[12:16])
			tableEnd := headerLen + entryLen*int(count)
			if count <= maxSection && len(data) >= tableEnd+4 {
				fixed := append([]byte(nil), data...)
				ok := true
				for i := 0; i < int(count); i++ {
					e := headerLen + entryLen*i
					off := binary.LittleEndian.Uint64(fixed[e+4 : e+12])
					ln := binary.LittleEndian.Uint64(fixed[e+12 : e+20])
					if off > uint64(len(fixed)) || ln > uint64(len(fixed))-off {
						ok = false
						break
					}
				}
				if ok {
					fixCRCs(fixed)
					load(t, fixed)
				}
			}
		}
	})
}
