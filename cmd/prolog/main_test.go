package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"symbol"
	"symbol/internal/snapshot"
)

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

// TestConsultSnapshot checks that a program snapshot consults to the same
// clauses as the source it was compiled from, and that the snapshots with
// no clauses to give are refused by name.
func TestConsultSnapshot(t *testing.T) {
	ctx := context.Background()
	p, err := symbol.Load(ctx, []byte(appSrc))
	if err != nil {
		t.Fatal(err)
	}
	fromSource, err := consult([]string{writeFile(t, "app.pl", []byte(appSrc))})
	if err != nil {
		t.Fatal(err)
	}
	fromSnapshot, err := consult([]string{writeFile(t, "app.sym", p.Snapshot())})
	if err != nil {
		t.Fatal(err)
	}
	if len(fromSource) != 3 || fmt.Sprint(fromSnapshot) != fmt.Sprint(fromSource) {
		t.Errorf("snapshot consulted to %v, source to %v", fromSnapshot, fromSource)
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
		_, err := consult([]string{writeFile(t, c.name, c.data)})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming the %s", c.name, err, c.want)
		}
	}
}
