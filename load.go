package symbol

import (
	"context"
	"errors"
	"fmt"

	"symbol/internal/emu"
	"symbol/internal/parse"
	"symbol/internal/snapshot"
	"symbol/internal/term"
)

// LoadOption configures Load.
type LoadOption func(*loadConfig)

type loadConfig struct {
	opts Options
	goal string
}

// WithCompileOptions sets the compile options for source inputs. Snapshot
// inputs ignore it: a snapshot records the options it was compiled with,
// and those win (they shaped the code being loaded).
func WithCompileOptions(opts Options) LoadOption {
	return func(c *loadConfig) { c.opts = opts }
}

// WithGoal compiles src as a knowledge base posed one query: the goal
// becomes the body of a synthetic entry clause that, on success, writes
// one "Var = value" line per named goal variable (or "yes" when the goal
// has none). Prolog failure surfaces as Result.Succeeded == false, not as
// an error; Program.Run gives the first solution and Engine.Query streams
// them all. The program starts in the synthetic entry instead of main/0,
// so a main/0 the knowledge base defines is an ordinary predicate: it does
// not run unless the goal calls it. The goal may be written with or
// without the "?-" prefix and the final ".".
//
// WithGoal applies only to Prolog source inputs. Combining it with a
// snapshot input is an error: a query snapshot already has its goal baked
// in at build time (see Program.Goal).
func WithGoal(goal string) LoadOption {
	return func(c *loadConfig) { c.goal = goal }
}

// Load is the single compile/load entry point: it accepts either Prolog
// source text or a binary snapshot (distinguished by the snapshot magic,
// see IsSnapshot) and returns a runnable Program.
//
//   - Source input is parsed and compiled, honoring WithCompileOptions and
//     WithGoal.
//   - Snapshot input is decoded, validated and predecoded — no parsing,
//     no compilation — and fails with typed errors:
//     *SnapshotFormatError or *SnapshotChecksumError for corruption,
//     *SnapshotVersionError for a format-version mismatch. Version skew
//     falls back to recompiling the snapshot's embedded source; a skewed
//     snapshot without one returns the error.
//
// Snapshots are produced by Program.Snapshot, or offline with
// symbol compile -o.
func Load(ctx context.Context, src []byte, opts ...LoadOption) (_ *Program, err error) {
	defer guard(&err)
	cfg := loadConfig{opts: DefaultOptions()}
	for _, f := range opts {
		f(&cfg)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if snapshot.Sniff(src) {
		if cfg.goal != "" {
			return nil, fmt.Errorf("symbol: WithGoal does not apply to snapshot inputs (the goal is baked in at snapshot build time)")
		}
		return loadSnapshot(src)
	}
	return compileText(string(src), cfg.opts, cfg.goal)
}

// IsSnapshot reports whether data begins with the snapshot magic, i.e.
// whether Load would treat it as a binary snapshot rather than source.
func IsSnapshot(data []byte) bool { return snapshot.Sniff(data) }

// loadSnapshot decodes a snapshot container into a Program, recompiling
// from the embedded source on version skew.
func loadSnapshot(data []byte) (*Program, error) {
	img, err := snapshot.Decode(data)
	if err != nil {
		var vErr *snapshot.VersionError
		if errors.As(err, &vErr) && vErr.Source != "" {
			// The snapshot's recorded compile options win over
			// WithCompileOptions, matching the load-success path.
			opts := Options{ArithChecks: vErr.Arith, MaxSteps: vErr.MaxSteps}
			goal := ""
			if vErr.Kind == snapshot.KindQuery {
				goal = vErr.Goal
			}
			return compileText(vErr.Source, opts, goal)
		}
		return nil, err
	}
	return programFromImage(img), nil
}

// programFromImage wraps a decoded snapshot image as a Program, installing
// the predecoded exec streams and the embedded profile so later Run and
// ScheduleWith calls skip that work too.
func programFromImage(img *snapshot.Image) *Program {
	p := &Program{
		opts:      Options{ArithChecks: img.Arith, MaxSteps: img.MaxSteps},
		icp:       img.Prog,
		undefined: img.Undefined,
		src:       img.Source,
		goal:      img.Goal,
	}
	p.icp.ExecCache(func() any { return img.Exec })
	if img.ProfExpect != nil {
		p.profOnce.Do(func() {
			p.profile = &emu.Profile{Expect: img.ProfExpect, Taken: img.ProfTaken}
		})
		p.profBuilt.Store(true)
	}
	return p
}

// compileText is the source-input back half of Load: parse (plain or as a
// knowledge base + goal) and compile.
func compileText(src string, opts Options, goal string) (*Program, error) {
	clauses, norm, err := sourceClauses(src, goal)
	if err != nil {
		return nil, err
	}
	return compileClauses(clauses, opts, src, norm)
}

// sourceClauses parses src as a whole program, or with goal as a knowledge
// base posed that query (see queryClauses), returning the clauses and the
// normalized goal.
func sourceClauses(src, goal string) ([]term.Term, string, error) {
	if goal == "" {
		clauses, err := parse.All(src)
		if err != nil {
			return nil, "", fmt.Errorf("symbol: %w", err)
		}
		return clauses, "", nil
	}
	return queryClauses(src, goal)
}

// Snapshot serializes the program as a versioned binary snapshot: the ICI
// code and atom table, the source text (fuel for the version-skew
// recompile fallback) and — if Profile has already been computed — the
// execution profile, so a scheduling consumer of the snapshot skips the
// profiling run as well. Load accepts the result directly; symbol serve
// preloads directories of them at boot.
func (p *Program) Snapshot() []byte {
	img := &snapshot.Image{
		Kind:      snapshot.KindProgram,
		Source:    p.src,
		Goal:      p.goal,
		Arith:     p.opts.ArithChecks,
		MaxSteps:  p.opts.MaxSteps,
		Undefined: p.undefined,
		Prog:      p.icp,
	}
	if p.goal != "" {
		img.Kind = snapshot.KindQuery
	}
	if p.profBuilt.Load() {
		img.ProfExpect = p.profile.Expect
		img.ProfTaken = p.profile.Taken
	}
	return snapshot.Encode(img)
}

// Snapshot error types, re-exported so callers can match them without
// importing an internal package.
var (
	// ErrNotSnapshot is returned by SnapshotInfo when data does not start
	// with the snapshot magic. (Load never returns it: non-snapshot input
	// is treated as Prolog source.)
	ErrNotSnapshot = snapshot.ErrNotSnapshot
)

type (
	// SnapshotFormatError reports a structurally invalid snapshot: a
	// malformed section, an out-of-range operand, a truncated payload.
	SnapshotFormatError = snapshot.FormatError
	// SnapshotChecksumError reports a section whose checksum does not
	// match its payload (bit rot, torn write).
	SnapshotChecksumError = snapshot.ChecksumError
	// SnapshotVersionError reports a snapshot written by a different
	// format version. Load recovers from it automatically when the
	// snapshot embeds its source.
	SnapshotVersionError = snapshot.VersionError
)

// SnapshotSection is one section's size in a snapshot container.
type SnapshotSection struct {
	Name  string
	Bytes int
}

// SnapshotDetails summarizes a snapshot container without decoding its
// payloads: format version and per-section sizes. It works on
// version-skewed snapshots (tooling must be able to describe what it
// cannot load).
type SnapshotDetails struct {
	Version  uint32
	Sections []SnapshotSection
}

// SnapshotInfo summarizes snapshot bytes (see SnapshotDetails). It returns
// ErrNotSnapshot when data is not a snapshot container.
func SnapshotInfo(data []byte) (*SnapshotDetails, error) {
	info, err := snapshot.ReadInfo(data)
	if err != nil {
		return nil, err
	}
	d := &SnapshotDetails{Version: info.Version}
	for _, s := range info.Sections {
		d.Sections = append(d.Sections, SnapshotSection{Name: s.Name, Bytes: s.Len})
	}
	return d, nil
}
