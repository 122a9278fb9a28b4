// Package snapshot defines the versioned binary container for compiled
// SYMBOL programs: the ic.Program (code, atom table, symbol maps), the
// compile options and embedded source, and an optional execution profile —
// everything a process needs to start answering queries without running
// the Prolog → BAM → ICI pipeline. The predecoded exec streams are not
// shipped: Decode rebuilds them with exec.Predecode from the validated
// program, which costs less than decoding and validating them.
//
// # Container layout
//
//	offset  size  field
//	0       8     magic "SYMSNAP\x1a"
//	8       4     format version (u32 LE)
//	12      4     section count (u32 LE)
//	16      24×n  section table: {id u32, off u64, len u64, crc u32} LE
//	…       4     table CRC (u32 LE, Castagnoli, over bytes 12 .. 16+24n)
//	…       —     section payloads (byte ranges named by the table)
//
// Per-section payloads are varint-encoded via internal/wire and guarded by
// their own Castagnoli CRC in the table entry. The header layout — and the
// payload encodings of the meta and source sections — are frozen across
// format versions. That freeze is the compatibility policy: a reader that
// meets a snapshot from a different version cannot trust the program
// sections, but it can still verify and extract the embedded source and
// compile options, and recompile. The table CRC deliberately excludes the
// version field, so a corrupted version byte surfaces as a *VersionError
// (recoverable, source intact) rather than a dead checksum failure.
//
// Decoding is total over arbitrary bytes: every failure is a typed error
// (ErrNotSnapshot, *FormatError, *VersionError, *ChecksumError), never a
// panic, and a successfully decoded image has passed the full executor-
// safety validation in internal/ic.
package snapshot

import (
	"errors"
	"fmt"
	"hash/crc32"

	"symbol/internal/exec"
	"symbol/internal/ic"
	"symbol/internal/wire"
)

// Version is the current snapshot format version. Bump it whenever any
// program-section encoding changes shape; the header and the meta/source
// sections must keep decoding under old readers regardless.
const Version uint32 = 1

// Magic is the 8-byte container signature.
const Magic = "SYMSNAP\x1a"

// Section IDs. Meta and source are frozen (see the package comment);
// program and profile may change shape with Version.
const (
	SecMeta    uint32 = 1 // compile kind + options + goal + undefined list (frozen)
	SecSource  uint32 = 2 // original Prolog source text (frozen)
	SecProgram uint32 = 3 // ic.Program: code, atoms, entries, symbol maps
	// SecExec is reserved. Older snapshots carry the predecoded streams
	// there; Decode skips the section unread, so they still load.
	SecExec    uint32 = 4
	SecProfile uint32 = 5 // optional emulation profile (expect/taken counts)
)

// SectionName returns a human-readable name for a section ID.
func SectionName(id uint32) string {
	switch id {
	case SecMeta:
		return "meta"
	case SecSource:
		return "source"
	case SecProgram:
		return "program"
	case SecExec:
		return "exec"
	case SecProfile:
		return "profile"
	}
	return fmt.Sprintf("section#%d", id)
}

// Kind distinguishes what the compiler front end produced.
type Kind uint8

const (
	KindProgram Kind = 1 // whole-program compile (symbol.Load)
	KindQuery   Kind = 2 // kb + synthesized goal (Load with WithGoal)
)

// ErrNotSnapshot reports input that does not begin with the container
// magic; callers sniffing "source or snapshot?" branch on it.
var ErrNotSnapshot = errors.New("snapshot: not a snapshot (bad magic)")

// FormatError reports a structurally invalid container or section: bad
// table geometry, truncated payloads, or a section that fails its semantic
// validation after the checksum passed.
type FormatError struct {
	Section string // section name, or "header"
	Err     error
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("snapshot: invalid %s: %v", e.Section, e.Err)
}

func (e *FormatError) Unwrap() error { return e.Err }

// ChecksumError reports a section whose payload does not match its CRC.
type ChecksumError struct {
	Section string
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("snapshot: %s section checksum mismatch", e.Section)
}

// VersionError reports a snapshot written by a different format version.
// When the version-skewed container still carries intact meta and source
// sections (their encodings are frozen), they are recovered here so the
// caller can fall back to recompiling; Source is "" when recovery failed.
type VersionError struct {
	Got, Want uint32
	Kind      Kind
	Source    string
	Goal      string
	Arith     bool
	MaxSteps  int64
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: format version %d (reader supports %d)", e.Got, e.Want)
}

// Image is the in-memory content of a snapshot.
type Image struct {
	Kind      Kind
	Source    string   // embedded Prolog source ("" if not embedded)
	Goal      string   // query goal text (KindQuery only)
	Arith     bool     // Options.ArithChecks at compile time
	MaxSteps  int64    // Options.MaxSteps at compile time
	Undefined []string // undefined-predicate warnings from the compile

	Prog *ic.Program
	// Exec is derived data: Encode ignores it and Decode rebuilds it with
	// exec.Predecode from the validated Prog.
	Exec *exec.Program

	// ProfExpect/ProfTaken are the embedded execution profile (both sized
	// exactly len(Prog.Code)), or nil when no profile was embedded.
	ProfExpect []int64
	ProfTaken  []int64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sniff reports whether data begins with the snapshot magic.
func Sniff(data []byte) bool {
	return len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic
}

const (
	headerLen  = 16 // magic + version + count
	entryLen   = 24 // id + off + len + crc
	maxSection = 64 // sanity cap on the table size
)

type section struct {
	id  uint32
	off uint64
	ln  uint64
	crc uint32
}

// appendSections assembles a container from payload byte slices.
func appendSections(version uint32, secs []struct {
	id      uint32
	payload []byte
}) []byte {
	off := uint64(headerLen + entryLen*len(secs) + 4)
	size := off
	for _, s := range secs {
		size += uint64(len(s.payload))
	}
	var w wire.Writer
	w.Grow(int(size))
	w.Raw([]byte(Magic))
	w.Bytes32(version)
	w.Bytes32(uint32(len(secs)))
	for _, s := range secs {
		w.Bytes32(s.id)
		w.Bytes64(off)
		w.Bytes64(uint64(len(s.payload)))
		w.Bytes32(crc32.Checksum(s.payload, castagnoli))
		off += uint64(len(s.payload))
	}
	table := w.Bytes()[12:] // count + entries
	w.Bytes32(crc32.Checksum(table, castagnoli))
	for _, s := range secs {
		w.Raw(s.payload)
	}
	return w.Bytes()
}

// Encode serializes an image into a snapshot container.
func Encode(img *Image) []byte {
	var meta wire.Writer
	meta.Byte(byte(img.Kind))
	meta.String(img.Goal)
	meta.Bool(img.Arith)
	meta.I64(img.MaxSteps)
	meta.Count(len(img.Undefined))
	for _, u := range img.Undefined {
		meta.String(u)
	}

	var prog wire.Writer
	ic.AppendProgram(&prog, img.Prog)

	secs := []struct {
		id      uint32
		payload []byte
	}{
		{SecMeta, meta.Bytes()},
		{SecSource, []byte(img.Source)},
		{SecProgram, prog.Bytes()},
	}
	if img.ProfExpect != nil {
		var pw wire.Writer
		pw.Count(len(img.ProfExpect))
		for _, v := range img.ProfExpect {
			pw.I64(v)
		}
		for _, v := range img.ProfTaken {
			pw.I64(v)
		}
		secs = append(secs, struct {
			id      uint32
			payload []byte
		}{SecProfile, pw.Bytes()})
	}
	return appendSections(Version, secs)
}

// parseTable reads and verifies the header and section table. It returns
// the table even on version skew (vErr non-nil) so recovery can proceed.
func parseTable(data []byte) (secs []section, vErr *VersionError, err error) {
	if !Sniff(data) {
		return nil, nil, ErrNotSnapshot
	}
	r := wire.NewReader(data)
	r.Raw(len(Magic))
	version := r.Bytes32()
	count := r.Bytes32()
	if r.Err() != nil || count > maxSection {
		return nil, nil, &FormatError{Section: "header", Err: wire.ErrMalformed}
	}
	tableEnd := headerLen + entryLen*int(count)
	if len(data) < tableEnd+4 {
		return nil, nil, &FormatError{Section: "header", Err: wire.ErrTruncated}
	}
	secs = make([]section, count)
	for i := range secs {
		secs[i] = section{
			id:  r.Bytes32(),
			off: r.Bytes64(),
			ln:  r.Bytes64(),
			crc: r.Bytes32(),
		}
	}
	tableCRC := r.Bytes32()
	if r.Err() != nil {
		return nil, nil, &FormatError{Section: "header", Err: r.Err()}
	}
	if crc32.Checksum(data[12:tableEnd], castagnoli) != tableCRC {
		return nil, nil, &ChecksumError{Section: "header"}
	}
	for _, s := range secs {
		if s.off > uint64(len(data)) || s.ln > uint64(len(data))-s.off {
			return nil, nil, &FormatError{Section: SectionName(s.id), Err: wire.ErrTruncated}
		}
	}
	if version != Version {
		return secs, &VersionError{Got: version, Want: Version}, nil
	}
	return secs, nil, nil
}

// payload returns a section's verified payload bytes, or nil if the
// section is absent. A CRC mismatch returns a *ChecksumError.
func payload(data []byte, secs []section, id uint32) ([]byte, error) {
	for _, s := range secs {
		if s.id != id {
			continue
		}
		p := data[s.off : s.off+s.ln]
		if crc32.Checksum(p, castagnoli) != s.crc {
			return nil, &ChecksumError{Section: SectionName(id)}
		}
		return p, nil
	}
	return nil, nil
}

// decodeMeta decodes the frozen meta section into img.
func decodeMeta(p []byte, img *Image) error {
	r := wire.NewReader(p)
	img.Kind = Kind(r.Byte())
	img.Goal = r.String()
	img.Arith = r.Bool()
	img.MaxSteps = r.I64()
	n := r.Len(1)
	if n > 0 {
		img.Undefined = make([]string, 0, n)
		for i := 0; i < n; i++ {
			img.Undefined = append(img.Undefined, r.String())
		}
	}
	r.Expect(img.Kind == KindProgram || img.Kind == KindQuery)
	r.Expect(r.Remaining() == 0)
	return r.Err()
}

// Decode parses, verifies and validates a snapshot, then predecodes the
// program (a SecExec section, if present, is skipped unread). The returned
// image is safe to execute. On version skew it returns a *VersionError
// that carries the recovered source and compile options when their
// sections are intact.
func Decode(data []byte) (*Image, error) {
	secs, vErr, err := parseTable(data)
	if err != nil {
		return nil, err
	}
	if vErr != nil {
		// Frozen-section recovery: salvage compile inputs for the caller's
		// recompile fallback; any corruption just leaves them empty.
		var img Image
		if p, err := payload(data, secs, SecMeta); err == nil && p != nil {
			if decodeMeta(p, &img) == nil {
				vErr.Kind = img.Kind
				vErr.Goal = img.Goal
				vErr.Arith = img.Arith
				vErr.MaxSteps = img.MaxSteps
			}
		}
		if p, err := payload(data, secs, SecSource); err == nil && p != nil {
			vErr.Source = string(p)
		}
		return nil, vErr
	}

	img := &Image{}
	p, err := payload(data, secs, SecMeta)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, &FormatError{Section: "meta", Err: errors.New("missing")}
	}
	if err := decodeMeta(p, img); err != nil {
		return nil, &FormatError{Section: "meta", Err: err}
	}

	if p, err = payload(data, secs, SecSource); err != nil {
		return nil, err
	}
	img.Source = string(p)

	if p, err = payload(data, secs, SecProgram); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, &FormatError{Section: "program", Err: errors.New("missing")}
	}
	r := wire.NewReader(p)
	img.Prog, err = ic.DecodeProgram(r)
	if err != nil {
		return nil, &FormatError{Section: "program", Err: err}
	}
	if r.Remaining() != 0 {
		return nil, &FormatError{Section: "program", Err: errors.New("trailing bytes")}
	}

	if p, err = payload(data, secs, SecProfile); err != nil {
		return nil, err
	}
	if p != nil {
		r = wire.NewReader(p)
		n := r.Len(1)
		// The profile indexes by original pc; a size disagreement with the
		// code array would crash the scheduler and the profile analyses,
		// so it is structural here.
		if r.Err() == nil && n != len(img.Prog.Code) {
			return nil, &FormatError{Section: "profile", Err: fmt.Errorf("%d entries for %d ICIs", n, len(img.Prog.Code))}
		}
		img.ProfExpect = make([]int64, n)
		for i := range img.ProfExpect {
			img.ProfExpect[i] = r.I64()
		}
		img.ProfTaken = make([]int64, n)
		for i := range img.ProfTaken {
			img.ProfTaken[i] = r.I64()
		}
		r.Expect(r.Remaining() == 0)
		if err := r.Err(); err != nil {
			return nil, &FormatError{Section: "profile", Err: err}
		}
	}
	img.Exec = exec.Predecode(img.Prog)
	return img, nil
}

// SectionInfo describes one section for tooling and size reports.
type SectionInfo struct {
	ID   uint32
	Name string
	Len  int
}

// Info is the cheap, non-validating summary of a snapshot container used
// by tooling (size reports, cache listings). Only the header and table are
// verified; payloads are not decoded.
type Info struct {
	Version  uint32
	Sections []SectionInfo
}

// ReadInfo summarizes a snapshot container without decoding payloads.
// Version-skewed containers still summarize (that is the point: tooling
// must be able to describe a snapshot it cannot load).
func ReadInfo(data []byte) (*Info, error) {
	secs, vErr, err := parseTable(data)
	if err != nil {
		return nil, err
	}
	info := &Info{Version: Version}
	if vErr != nil {
		info.Version = vErr.Got
	}
	for _, s := range secs {
		info.Sections = append(info.Sections, SectionInfo{ID: s.id, Name: SectionName(s.id), Len: int(s.ln)})
	}
	return info, nil
}
