package server

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"kali/internal/core"
	"kali/internal/lang"
	"kali/internal/machine"
)

// TestRunProgramSharedAST: tenants that submit the same program share
// one compiled *lang.Program, and with it one AST.  K goroutines run
// each corpus program through RunProgram at once, on the bytecode VM
// and on the tree walker, and every result must equal a solo
// Program.Run.  Under -race this pins that the checker's resolution
// annotations are written only by Check and only read afterwards.
func TestRunProgramSharedAST(t *testing.T) {
	const p, k = 8, 4
	paths, err := filepath.Glob("../lang/testdata/*.kali")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus programs (%v)", err)
	}
	srv, err := New(Config{P: p, Machines: k, Params: machine.NCUBE7()})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, noVM := range []bool{false, true} {
			prog.NoVM = noVM
			want, err := prog.Run(core.Config{P: p, Params: machine.NCUBE7()})
			if err != nil {
				t.Fatalf("%s NoVM=%v solo: %v", path, noVM, err)
			}
			results := make([]*lang.Result, k)
			errs := make([]error, k)
			var wg sync.WaitGroup
			for i := range k {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i], errs[i] = srv.RunProgram(prog)
				}()
			}
			wg.Wait()
			for i := range k {
				if errs[i] != nil {
					t.Fatalf("%s NoVM=%v tenant %d: %v", path, noVM, i, errs[i])
				}
				if d := resultDiff(results[i], want); d != "" {
					t.Fatalf("%s NoVM=%v tenant %d: %s", path, noVM, i, d)
				}
			}
		}
	}
}
