package server

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"kali/internal/core"
	"kali/internal/lang"
	"kali/internal/lang/langtest"
	"kali/internal/machine"
)

// diffServer is the concurrency analogue of the language package's
// VM-vs-walker differential: one random program run solo (fresh
// machine, no store) is the oracle; K copies of it racing each other —
// and a differently-shaped perturbing neighbor — through one server
// must all reproduce the oracle's arrays, scalars and traffic exactly.
// Simulated times are excluded: who wins the build race decides who
// pays build cost vs adoption cost, but never what the program
// computes or sends.
func diffServer(t *testing.T, src, perturbSrc string, k int) {
	t.Helper()
	const p = 8
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	want, err := prog.Run(core.Config{P: p, Params: machine.NCUBE7()})
	if err != nil {
		t.Fatalf("solo run: %v\n%s", err, src)
	}

	srv, err := New(Config{P: p, Machines: 4, Params: machine.NCUBE7()})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*lang.Result, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := srv.Run(src)
			if err != nil {
				t.Errorf("tenant %d: %v\n%s", i, err, src)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.Run(perturbSrc); err != nil {
			t.Errorf("perturber: %v\n%s", err, perturbSrc)
		}
	}()
	wg.Wait()

	for i, res := range results {
		if res == nil {
			continue // already reported
		}
		if d := resultDiff(res, want); d != "" {
			t.Fatalf("tenant %d: %s\n%s", i, d, src)
		}
	}
}

// resultDiff describes the first way got differs from the solo oracle
// want in what a program computes and sends — chosen P, arrays,
// scalars, traffic — or returns "" when they agree.  Simulated times
// are excluded: who wins a schedule build race decides who pays build
// cost vs adoption cost, but never what the program computes or sends.
func resultDiff(got, want *lang.Result) string {
	if got.P != want.P {
		return fmt.Sprintf("chose P=%d, solo chose %d", got.P, want.P)
	}
	for name, w := range want.Arrays {
		g := got.Arrays[name]
		for j := range w {
			if g[j] != w[j] {
				return fmt.Sprintf("%s[%d] = %v, solo %v", name, j+1, g[j], w[j])
			}
		}
	}
	for name, w := range want.IntArrays {
		g := got.IntArrays[name]
		for j := range w {
			if g[j] != w[j] {
				return fmt.Sprintf("%s[%d] = %d, solo %d", name, j+1, g[j], w[j])
			}
		}
	}
	for name, w := range want.Scalars {
		if g := got.Scalars[name]; g != w {
			return fmt.Sprintf("%s = %v, solo %v", name, g, w)
		}
	}
	r, w := got.Report, want.Report
	if r.MsgsSent != w.MsgsSent || r.BytesSent != w.BytesSent ||
		r.FusedMsgs != w.FusedMsgs || r.FusedBytes != w.FusedBytes ||
		r.RedistMsgs != w.RedistMsgs || r.RedistBytes != w.RedistBytes {
		return fmt.Sprintf("traffic diverges: got %d msgs/%d bytes (%d/%d fused, %d/%d redist), solo %d/%d (%d/%d, %d/%d)",
			r.MsgsSent, r.BytesSent, r.FusedMsgs, r.FusedBytes, r.RedistMsgs, r.RedistBytes,
			w.MsgsSent, w.BytesSent, w.FusedMsgs, w.FusedBytes, w.RedistMsgs, w.RedistBytes)
	}
	return ""
}

// TestQuickServerDifferential is the fixed-budget CI version of the
// racing-tenants property.
func TestQuickServerDifferential(t *testing.T) {
	f := func(seed int64) bool {
		src := langtest.GenVMProgram(rand.New(rand.NewSource(seed)))
		perturb := langtest.GenProgram(rand.New(rand.NewSource(seed + 1)))
		diffServer(t, src, perturb, 3)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// FuzzServerDifferential is the native-fuzzing entry point for the
// same property; `go test -fuzz=FuzzServerDifferential` explores seeds
// beyond the fixed quick.Check budget.
func FuzzServerDifferential(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1990, 123456789} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := langtest.GenVMProgram(rand.New(rand.NewSource(seed)))
		perturb := langtest.GenProgram(rand.New(rand.NewSource(seed + 1)))
		diffServer(t, src, perturb, 3)
	})
}
