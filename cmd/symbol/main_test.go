package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"symbol"
	"symbol/internal/snapshot"
)

// appSrc defines main/0, so queries against it check that the program's own
// entry point does not run in place of the query.
const appSrc = `app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
main :- app([1], [2], X), write(X), nl.
`

func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// symbolCmd runs the command line in-process and returns its stdout,
// stderr and exit status.
func symbolCmd(t *testing.T, stdin string, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(context.Background(), args, strings.NewReader(stdin), &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

// programs returns appSrc as a source file and as a snapshot written by
// compile -o.
func programs(t *testing.T) map[string]string {
	t.Helper()
	src := writeFile(t, "app.pl", []byte(appSrc))
	sym := filepath.Join(t.TempDir(), "appsym.sym")
	if out, errs, code := symbolCmd(t, "", "compile", "-o", sym, src); code != 0 || !strings.HasPrefix(out, sym+": ") {
		t.Fatalf("compile -o: exit %d, stdout %q, stderr %q", code, out, errs)
	}
	return map[string]string{"source": src, "snapshot": sym}
}

// TestConsultSnapshot checks that a program snapshot consults to the same
// source it was compiled from, and that the snapshots with no clauses to
// give are refused by name.
func TestConsultSnapshot(t *testing.T) {
	ctx := context.Background()
	p, err := symbol.Load(ctx, []byte(appSrc))
	if err != nil {
		t.Fatal(err)
	}
	fromSource, err := consult(ctx, []input{{"app.pl", []byte(appSrc)}})
	if err != nil {
		t.Fatal(err)
	}
	fromSnapshot, err := consult(ctx, []input{{"app.sym", p.Snapshot()}})
	if err != nil {
		t.Fatal(err)
	}
	if fromSource != appSrc+"\n" || fromSnapshot != fromSource {
		t.Errorf("snapshot consulted to %q, source to %q", fromSnapshot, fromSource)
	}

	q, err := symbol.Load(ctx, []byte(appSrc), symbol.WithGoal("app(X, Y, [1])"))
	if err != nil {
		t.Fatal(err)
	}
	img, err := snapshot.Decode(p.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	img.Source = ""
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"query.sym", "query snapshot", q.Snapshot()},
		{"nosource.sym", "no embedded source", snapshot.Encode(img)},
	} {
		_, err := consult(ctx, []input{{c.name, c.data}})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming the %s", c.name, err, c.want)
		}
	}
}

// TestRun answers queries on a source file and on its snapshot: the first
// answer, every answer, the program's own main/0 as a goal, and a query
// read from stdin.
func TestRun(t *testing.T) {
	for kind, path := range programs(t) {
		for _, c := range []struct {
			stdin string
			args  []string
			want  string
		}{
			{"", []string{"-q", "app(X,Y,[1])."}, "X = []\nY = [1]\n"},
			{"", []string{"-solutions", "-1", "-q", "app(X,Y,[1])."}, "X = []\nY = [1]\n;\nX = [1]\nY = []\n"},
			{"", []string{"-solutions", "2", "-q", "app(X,[3],[1,2])"}, "no\n"},
			{"", []string{"-q", "main"}, "[1,2]\nyes\n"},
			{"app(X, [2], [1,2]).\nhalt.\n", nil, "?- X = [1]\n?- "},
		} {
			args := append(append([]string{"run"}, c.args...), path)
			out, errs, code := symbolCmd(t, c.stdin, args...)
			if c.stdin != "" {
				out = out[strings.Index(out, "\n")+1:] // the banner
			}
			if code != 0 || out != c.want {
				t.Errorf("%s: %q: exit %d, stdout %q (stderr %q), want %q", kind, args, code, out, errs, c.want)
			}
		}
	}
	if _, errs, code := symbolCmd(t, "", "run", "-max-steps", "5", "-q", "main", programs(t)["source"]); code != 1 || !strings.Contains(errs, "step limit") {
		t.Errorf("-max-steps 5: exit %d, stderr %q, want a step-limit fault", code, errs)
	}
}

// TestRunEventsOnFault checks that -events prints the trace of a query
// that faults: the last N events, then the fault.
func TestRunEventsOnFault(t *testing.T) {
	loop := writeFile(t, "loop.pl", []byte("loop :- loop.\nmain :- loop.\n"))
	_, errs, code := symbolCmd(t, "", "run", "-max-steps", "100", "-events", "5", "-q", "main", loop)
	lines := strings.Split(strings.TrimSuffix(errs, "\n"), "\n")
	if code != 1 || len(lines) != 7 || !strings.HasPrefix(lines[0], "events: ") ||
		!strings.Contains(lines[6], "step limit") {
		t.Fatalf("exit %d, stderr %q, want 5 events after the dropped count, then the step-limit fault", code, errs)
	}
}

// TestCompile lists a source file and its snapshot: the ICI listing is the
// same, and the snapshot rewrites to the same bytes.
func TestCompile(t *testing.T) {
	progs := programs(t)
	listing := map[string]string{}
	for kind, path := range progs {
		out, errs, code := symbolCmd(t, "", "compile", "-ic", "-vliw", "-units", "1,3", path)
		if code != 0 || !strings.HasPrefix(out, "; Intermediate Code (") || strings.Count(out, "; VLIW schedule:") != 2 {
			t.Fatalf("%s: exit %d, stderr %q, stdout %.200q", kind, code, errs, out)
		}
		listing[kind] = out
		sym := filepath.Join(t.TempDir(), "again.sym")
		if _, errs, code := symbolCmd(t, "", "compile", "-o", sym, path); code != 0 {
			t.Fatalf("%s: compile -o: exit %d, stderr %q", kind, code, errs)
		}
	}
	if listing["source"] != listing["snapshot"] {
		t.Error("the snapshot lists differently from its source")
	}
	if _, _, code := symbolCmd(t, ""); code != 2 {
		t.Errorf("no subcommand: exit %d, want 2", code)
	}
	if _, _, code := symbolCmd(t, "", "compile"); code != 2 {
		t.Errorf("compile without input: exit %d, want 2", code)
	}
}

// TestSim simulates a source file and its snapshot: the same cycle table,
// with every VLIW run checked against the sequential one.
func TestSim(t *testing.T) {
	tables := map[string]string{}
	for kind, path := range programs(t) {
		out, errs, code := symbolCmd(t, "", "sim", "-units", "1,3", path)
		if code != 0 || !strings.Contains(out, ": sequential run: success=true") || !strings.Contains(out, "3-unit VLIW") {
			t.Fatalf("%s: exit %d, stderr %q, stdout %q", kind, code, errs, out)
		}
		tables[kind] = out[strings.Index(out, "\n"):] // after the line naming the file
	}
	if tables["source"] != tables["snapshot"] {
		t.Errorf("source table %q, snapshot table %q", tables["source"], tables["snapshot"])
	}
	if out, errs, code := symbolCmd(t, "", "sim", "-bench", "qsort", "-units", "2"); code != 0 || !strings.HasPrefix(out, "qsort: sequential run: success=true") {
		t.Errorf("sim -bench qsort: exit %d, stderr %q, stdout %q", code, errs, out)
	}
}

// TestServe serves a source KB and a snapshot KB on a loopback port, runs
// each one's main/0, and drains when the context is cancelled.
func TestServe(t *testing.T) {
	progs := programs(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logr, logw := io.Pipe()
	addrc := make(chan string, 1)
	logc := make(chan string, 1)
	go func() {
		var log strings.Builder
		sc := bufio.NewScanner(logr)
		for sc.Scan() {
			line := sc.Text()
			log.WriteString(line + "\n")
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				addrc <- addr
			}
		}
		logc <- log.String()
	}()
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"serve", "-addr", "127.0.0.1:0", progs["source"], progs["snapshot"]}, nil, io.Discard, logw)
		logw.Close()
	}()

	var addr string
	select {
	case addr = <-addrc:
	case code := <-done:
		t.Fatalf("serve exited with %d before listening", code)
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not start listening")
	}
	for _, kb := range []string{"app", "appsym"} {
		resp, err := http.Get("http://" + addr + "/run/" + kb)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			OK     bool   `json:"ok"`
			Output string `json:"output"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 || !body.OK || body.Output != "[1,2]\n" {
			t.Errorf("/run/%s: status %d, body %+v, decode error %v", kb, resp.StatusCode, body, err)
		}
	}

	cancel()
	if code := <-done; code != 0 {
		t.Errorf("serve exited with %d after cancel, want 0", code)
	}
	if log := <-logc; !strings.Contains(log, "drained cleanly") {
		t.Errorf("serve log has no clean drain:\n%s", log)
	}
}
