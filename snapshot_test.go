package symbol_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"symbol"
	"symbol/internal/benchprog"
	"symbol/internal/fault"
	"symbol/internal/ic"
	"symbol/internal/snapshot"
)

// loadCorpus returns the benchmark programs used by the snapshot tests
// (the Heavy ones are skipped under -short).
func snapshotCorpus(t *testing.T) []*benchprog.Benchmark {
	t.Helper()
	var out []*benchprog.Benchmark
	for _, b := range benchprog.All() {
		if testing.Short() && b.Heavy {
			continue
		}
		out = append(out, b)
	}
	return out
}

// TestSnapshotRoundTripCorpus compiles every benchmark, snapshots it,
// loads the snapshot back, and checks the loaded program is observably
// identical: same ICI listing, BAM listing (regenerated from the embedded
// source), code size, undefined set, source, and the same run output.
func TestSnapshotRoundTripCorpus(t *testing.T) {
	ctx := context.Background()
	for _, b := range snapshotCorpus(t) {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			orig, err := symbol.Load(ctx, []byte(b.Source))
			if err != nil {
				t.Fatalf("Load source: %v", err)
			}
			data := orig.Snapshot()
			if !symbol.IsSnapshot(data) {
				t.Fatal("Snapshot() bytes not recognized by IsSnapshot")
			}
			loaded, err := symbol.Load(ctx, data)
			if err != nil {
				t.Fatalf("Load snapshot: %v", err)
			}
			if got, want := loaded.ICListing(), orig.ICListing(); got != want {
				t.Fatal("ICListing differs after round trip")
			}
			if got, want := loaded.BAMListing(), orig.BAMListing(); got != want || want == "" {
				t.Fatalf("BAMListing after round trip has %d bytes, want the source's %d", len(got), len(want))
			}
			if loaded.CodeSize() != orig.CodeSize() {
				t.Fatalf("CodeSize = %d, want %d", loaded.CodeSize(), orig.CodeSize())
			}
			if !reflect.DeepEqual(loaded.Undefined(), orig.Undefined()) {
				t.Fatalf("Undefined = %v, want %v", loaded.Undefined(), orig.Undefined())
			}
			if loaded.Source() != b.Source {
				t.Fatal("embedded source differs")
			}
			if loaded.Goal() != "" {
				t.Fatalf("program snapshot has goal %q", loaded.Goal())
			}
			res, err := loaded.Run(ctx, symbol.RunOptions{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Output != b.Expect {
				t.Fatalf("output %q, want %q", res.Output, b.Expect)
			}
		})
	}
}

// TestSnapshotDifferential runs each corpus program twice — compiled from
// source and loaded from its snapshot — under every dispatch mode, and
// requires identical observable results: success, output, steps, and every
// Stats counter except wall time. Each side runs every mode through one
// engine, so a program's runs share one pooled machine state per side
// instead of allocating a full state per run.
func TestSnapshotDifferential(t *testing.T) {
	ctx := context.Background()
	modes := []symbol.Dispatch{
		symbol.DispatchLegacy, symbol.DispatchNoFuse, symbol.DispatchFused,
	}
	for _, b := range snapshotCorpus(t) {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			orig, err := symbol.Load(ctx, []byte(b.Source))
			if err != nil {
				t.Fatalf("Load source: %v", err)
			}
			loaded, err := symbol.Load(ctx, orig.Snapshot())
			if err != nil {
				t.Fatalf("Load snapshot: %v", err)
			}
			origEng, loadedEng := symbol.NewEngine(orig), symbol.NewEngine(loaded)
			for _, mode := range modes {
				want, err := origEng.Run(ctx, symbol.RunOptions{Dispatch: mode})
				if err != nil {
					t.Fatalf("%v compiled run: %v", mode, err)
				}
				got, err := loadedEng.Run(ctx, symbol.RunOptions{Dispatch: mode})
				if err != nil {
					t.Fatalf("%v snapshot run: %v", mode, err)
				}
				if got.Succeeded != want.Succeeded || got.Output != want.Output || got.Steps != want.Steps {
					t.Fatalf("%v: result differs: got ok=%v steps=%d, want ok=%v steps=%d",
						mode, got.Succeeded, got.Steps, want.Succeeded, want.Steps)
				}
				gs, ws := got.Stats, want.Stats
				gs.Wall, ws.Wall = 0, 0
				if gs != ws {
					t.Fatalf("%v: stats differ:\ngot  %+v\nwant %+v", mode, gs, ws)
				}
			}
		})
	}
}

// TestSnapshotQueryRoundTrip checks the query (WithGoal) path: kind, goal
// and knowledge base survive the round trip, list the same BAM and keep
// answering.
func TestSnapshotQueryRoundTrip(t *testing.T) {
	ctx := context.Background()
	const kb = "parent(tom, bob).\nparent(bob, ann).\ngrand(X, Z) :- parent(X, Y), parent(Y, Z).\n"
	orig, err := symbol.Load(ctx, []byte(kb), symbol.WithGoal("?- grand(tom, W)."))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	loaded, err := symbol.Load(ctx, orig.Snapshot())
	if err != nil {
		t.Fatalf("Load snapshot: %v", err)
	}
	if loaded.Goal() != "grand(tom, W)." {
		t.Fatalf("goal = %q", loaded.Goal())
	}
	if loaded.Source() != kb {
		t.Fatalf("source = %q", loaded.Source())
	}
	if got, want := loaded.BAMListing(), orig.BAMListing(); got != want || !strings.Contains(want, "procedure grand/2") {
		t.Fatalf("BAMListing after round trip:\n%s\nwant:\n%s", got, want)
	}
	want, err := orig.Run(ctx, symbol.RunOptions{})
	if err != nil {
		t.Fatalf("compiled run: %v", err)
	}
	got, err := loaded.Run(ctx, symbol.RunOptions{})
	if err != nil {
		t.Fatalf("snapshot run: %v", err)
	}
	if got.Output != want.Output || got.Output != "W = ann\n" {
		t.Fatalf("output %q / %q, want %q", got.Output, want.Output, "W = ann\n")
	}
	// A goal cannot be combined with a snapshot input.
	if _, err := symbol.Load(ctx, orig.Snapshot(), symbol.WithGoal("parent(X, Y)")); err == nil {
		t.Fatal("Load(snapshot, WithGoal) did not fail")
	}
}

// TestSnapshotFaultParity: faults must surface identically from compiled
// and snapshot-loaded programs — same typed error, same text.
func TestSnapshotFaultParity(t *testing.T) {
	ctx := context.Background()
	const src = "main :- X is 1 // 0, write(X)."
	orig, err := symbol.Load(ctx, []byte(src))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	loaded, err := symbol.Load(ctx, orig.Snapshot())
	if err != nil {
		t.Fatalf("Load snapshot: %v", err)
	}
	for _, mode := range []symbol.Dispatch{
		symbol.DispatchLegacy, symbol.DispatchNoFuse, symbol.DispatchFused,
	} {
		_, werr := orig.Run(ctx, symbol.RunOptions{Dispatch: mode})
		_, gerr := loaded.Run(ctx, symbol.RunOptions{Dispatch: mode})
		if werr == nil || gerr == nil {
			t.Fatalf("%v: expected zero-divide fault, got %v / %v", mode, werr, gerr)
		}
		if !errors.Is(gerr, symbol.ErrZeroDivide) || gerr.Error() != werr.Error() {
			t.Fatalf("%v: fault differs: %q vs %q", mode, gerr, werr)
		}
	}
}

// TestSnapshotEmbeddedProfile: a snapshot written after Profile() carries
// the profile, and the loaded program schedules without rerunning it.
func TestSnapshotEmbeddedProfile(t *testing.T) {
	ctx := context.Background()
	b, err := benchprog.Get("qsort")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := symbol.Load(ctx, []byte(b.Source))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	bare := orig.Snapshot() // pre-profile: no profile section
	wantProf, err := orig.Profile()
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	full := orig.Snapshot() // post-profile: profile embedded
	if len(full) <= len(bare) {
		t.Fatalf("profiled snapshot (%d bytes) not larger than bare (%d)", len(full), len(bare))
	}
	info, err := symbol.SnapshotInfo(full)
	if err != nil {
		t.Fatalf("SnapshotInfo: %v", err)
	}
	var names []string
	for _, s := range info.Sections {
		names = append(names, s.Name)
	}
	if !reflect.DeepEqual(names, []string{"meta", "source", "program", "profile"}) {
		t.Fatalf("sections = %v", names)
	}
	loaded, err := symbol.Load(ctx, full)
	if err != nil {
		t.Fatalf("Load snapshot: %v", err)
	}
	gotProf, err := loaded.Profile()
	if err != nil {
		t.Fatalf("loaded Profile: %v", err)
	}
	if !reflect.DeepEqual(gotProf.Expect, wantProf.Expect) || !reflect.DeepEqual(gotProf.Taken, wantProf.Taken) {
		t.Fatal("embedded profile differs from computed profile")
	}
	// The profile must be good enough to schedule and simulate with.
	sched, err := loaded.ScheduleWith(symbol.DefaultMachine(3))
	if err != nil {
		t.Fatalf("ScheduleWith: %v", err)
	}
	res, err := sched.Simulate()
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Output != b.Expect {
		t.Fatalf("simulated output %q, want %q", res.Output, b.Expect)
	}
}

// sourceless returns p's snapshot without its embedded source. A
// version-skewed copy of it has nothing to recompile, so Load returns the
// typed *SnapshotVersionError.
func sourceless(t *testing.T, p *symbol.Program) []byte {
	t.Helper()
	img, err := snapshot.Decode(p.Snapshot())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	img.Source = ""
	return snapshot.Encode(img)
}

// TestSnapshotCorruptionTyped flips bytes across a real corpus snapshot
// and checks Load's error contract: typed snapshot errors, never a panic,
// never a silently-wrong program. The snapshot embeds no source, so a
// flipped version byte cannot fall back to a recompile.
func TestSnapshotCorruptionTyped(t *testing.T) {
	ctx := context.Background()
	b, err := benchprog.Get("reverse")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := symbol.Load(ctx, []byte(b.Source))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	data := sourceless(t, orig)
	stride := 7 // sample positions; the exhaustive sweep lives in internal/snapshot
	for i := 0; i < len(data); i += stride {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x55
		_, err := symbol.Load(ctx, mut)
		if i < 8 {
			// Magic flips stop looking like a snapshot, so Load treats the
			// bytes as Prolog source — binary garbage must still error.
			if err == nil {
				t.Fatalf("byte %d: corrupt magic loaded successfully", i)
			}
			continue
		}
		var fe *symbol.SnapshotFormatError
		var ce *symbol.SnapshotChecksumError
		var ve *symbol.SnapshotVersionError
		if !errors.As(err, &fe) && !errors.As(err, &ce) && !errors.As(err, &ve) {
			t.Fatalf("byte %d: error %T %v is not a typed snapshot error", i, err, err)
		}
	}
}

// TestSnapshotBadFaultKind: a snapshot whose SysFault instruction names
// fault.None or a kind past the enumeration must fail to load with a typed
// format error. Run, such a program would return an error whose fault is
// nil, and classifying it with fault.KindOf would panic.
func TestSnapshotBadFaultKind(t *testing.T) {
	ctx := context.Background()
	orig, err := symbol.Load(ctx, []byte("main :- X is 1 // 0, write(X)."))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, k := range []int64{int64(fault.None), 99} {
		t.Run(fmt.Sprintf("kind%d", k), func(t *testing.T) {
			img, err := snapshot.Decode(orig.Snapshot())
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			n := 0
			for i := range img.Prog.Code {
				if in := &img.Prog.Code[i]; in.Op == ic.SysOp && in.Sys == ic.SysFault {
					in.Imm = k
					n++
				}
			}
			if n == 0 {
				t.Fatal("program has no SysFault instruction")
			}
			_, err = symbol.Load(ctx, snapshot.Encode(img))
			var fe *symbol.SnapshotFormatError
			if !errors.As(err, &fe) {
				t.Fatalf("Load = %v, want *SnapshotFormatError", err)
			}
		})
	}
}

// TestSnapshotVersionFallback: a version-skewed snapshot recompiles from
// its embedded source, and surfaces the typed error when it embeds none.
func TestSnapshotVersionFallback(t *testing.T) {
	ctx := context.Background()
	b, err := benchprog.Get("reverse")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := symbol.Load(ctx, []byte(b.Source))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	data := orig.Snapshot()
	data[8]++ // format version field (little-endian u32 at offset 8)

	var ve *symbol.SnapshotVersionError
	if _, err := snapshot.Decode(data); !errors.As(err, &ve) {
		t.Fatalf("Decode: got %v, want SnapshotVersionError", err)
	}
	if ve.Source != b.Source {
		t.Fatal("version error did not recover the embedded source")
	}
	skewed := sourceless(t, orig)
	skewed[8]++
	if _, err := symbol.Load(ctx, skewed); !errors.As(err, &ve) {
		t.Fatalf("skewed snapshot without source: got %v, want SnapshotVersionError", err)
	}

	prog, err := symbol.Load(ctx, data)
	if err != nil {
		t.Fatalf("fallback load: %v", err)
	}
	res, err := prog.Run(ctx, symbol.RunOptions{})
	if err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	if res.Output != b.Expect {
		t.Fatalf("fallback output %q, want %q", res.Output, b.Expect)
	}
}

// BenchmarkSnapshotLoad and BenchmarkSourceCompile are the two sides of
// the cold-start comparison -snapbench reports, exposed as Go benchmarks
// so the load path can be profiled in isolation.
func BenchmarkSnapshotLoad(b *testing.B) {
	bench, err := benchprog.Get("qsort")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := symbol.Load(context.Background(), []byte(bench.Source))
	if err != nil {
		b.Fatal(err)
	}
	snap := prog.Snapshot()
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := symbol.Load(context.Background(), snap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSourceCompile(b *testing.B) {
	bench, err := benchprog.Get("qsort")
	if err != nil {
		b.Fatal(err)
	}
	src := []byte(bench.Source)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := symbol.Load(context.Background(), src); err != nil {
			b.Fatal(err)
		}
	}
}
