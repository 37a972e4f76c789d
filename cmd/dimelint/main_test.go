package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dime/internal/lint"
)

// chdir switches into dir for the duration of the test. run() resolves the
// module from the working directory, so the golden tests operate inside the
// fixture modules under testdata/src (which the go tool itself ignores).
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// runCLI invokes run() and returns exit code, stdout, stderr.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

const fixtureGolden = `lib.go:11:9: detersafe: time.Now (wall clock) in fixturemod.tick is reachable from result entry point fixturemod.Discover; results must not depend on it (chain: fixturemod.Discover -> fixturemod.tick)
lib.go:15:6: panicprop: exported fixturemod.Outer can reach panic via fixturemod.inner (chain: fixturemod.Outer -> fixturemod.inner); return an error or absorb the panic behind recover/MustX
lib.go:20:2: panicprop: panic in library function inner; return an error or move the panic into a Must* constructor
lib.go:24:11: float-threshold: exact == on float values; use sim.Eq (epsilon 1e-9) instead
`

func TestRunList(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, a := range lint.All() {
		if !strings.Contains(stdout, a.Name()) || !strings.Contains(stdout, a.Doc()) {
			t.Errorf("-list output missing analyzer %s", a.Name())
		}
	}
}

func TestRunNewFindingsTextGolden(t *testing.T) {
	chdir(t, filepath.Join("testdata", "src", "fixturemod"))
	code, stdout, stderr := runCLI(t)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings); stderr: %s", code, stderr)
	}
	if stdout != fixtureGolden {
		t.Errorf("stdout mismatch:\n--- got ---\n%s--- want ---\n%s", stdout, fixtureGolden)
	}
	if !strings.Contains(stderr, "4 finding(s)") {
		t.Errorf("stderr should count findings, got: %s", stderr)
	}
}

func TestRunCleanModule(t *testing.T) {
	chdir(t, filepath.Join("testdata", "src", "cleanmod"))
	code, stdout, stderr := runCLI(t)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("clean run should print nothing, got: %s", stdout)
	}
}

func TestRunOnly(t *testing.T) {
	chdir(t, filepath.Join("testdata", "src", "fixturemod"))

	// A narrowed run reports just the selected analyzer's findings.
	code, stdout, _ := runCLI(t, "-only", "detersafe")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if want := fixtureGolden[:strings.Index(fixtureGolden, "\n")+1]; stdout != want {
		t.Errorf("-only detersafe:\n--- got ---\n%s--- want ---\n%s", stdout, want)
	}

	// -list honors -only.
	code, stdout, _ = runCLI(t, "-list", "-only", "detersafe,float-threshold")
	if code != 0 || strings.Contains(stdout, "panicprop") || !strings.Contains(stdout, "detersafe") {
		t.Errorf("-list -only: exit=%d stdout=%s", code, stdout)
	}

	// Unknown analyzer names are usage errors.
	code, _, stderr := runCLI(t, "-only", "nope")
	if code != 2 || !strings.Contains(stderr, "unknown analyzer") {
		t.Errorf("-only nope: exit=%d stderr=%s", code, stderr)
	}
}

// lockGolden is the locklint text output over the lockmod fixture: an AB/BA
// lock-order inversion reported from both sides, a direct sleep under a held
// lock, and a blocking call chain under a held lock.
const lockGolden = `lib.go:21:2: lockorder: lock order inversion: lockmod.Store.wm acquired while lockmod.Store.PushPull holds lockmod.Store.mu, but another path acquires them in the opposite order (cycle: lockmod.Store.mu -> lockmod.Store.wm): potential deadlock
lib.go:29:2: lockorder: lock order inversion: lockmod.Store.mu acquired while lockmod.Store.PullPush holds lockmod.Store.wm, but another path acquires them in the opposite order (cycle: lockmod.Store.mu -> lockmod.Store.wm): potential deadlock
lib.go:37:2: heldcall: time.Sleep while lockmod.Store.SlowFlush holds lockmod.Store.mu
lib.go:45:2: heldcall: call to lockmod.drain may block (time.Sleep; chain: lockmod.drain) while lockmod.Store.Relay holds lockmod.Store.wm
`

// leakGolden is the goleak text output over the leakmod fixture; the
// Stoppable counterpart with a quit-channel receive must stay silent.
const leakGolden = `lib.go:8:2: goleak: goroutine spawned in leakmod.Serve runs an unbounded loop with no cancellation path (no channel or ctx.Done receive anywhere in its body); it outlives the request — reachable from leakmod.Serve (chain: leakmod.Serve)
`

// ctxGolden is the ctxflow text output over the ctxmod fixture; the Forward
// counterpart that threads its ctx must stay silent.
const ctxGolden = `lib.go:13:8: ctxflow: context.Background() in ctxmod.Handle discards the caller's context on a path reachable from entry point ctxmod.Handle (chain: ctxmod.Handle); thread the caller's ctx through instead
lib.go:17:11: ctxflow: parameter "ctx" in ctxmod.Wait is received but never used, yet the function does blocking or context-aware work; pass the caller's ctx to the downstream calls or drop the parameter
`

// TestRunLockLintFixtures proves each locklint analyzer on its violating
// fixture module with golden text output, selecting the four concurrency
// analyzers by name.
func TestRunLockLintFixtures(t *testing.T) {
	for _, tc := range []struct {
		mod, golden string
		findings    string
	}{
		{"lockmod", lockGolden, "4 finding(s)"},
		{"leakmod", leakGolden, "1 finding(s)"},
		{"ctxmod", ctxGolden, "2 finding(s)"},
	} {
		t.Run(tc.mod, func(t *testing.T) {
			chdir(t, filepath.Join("testdata", "src", tc.mod))
			code, stdout, stderr := runCLI(t, "-only", "lockorder,heldcall,goleak,ctxflow")
			if code != 1 {
				t.Fatalf("exit = %d, want 1 (findings); stderr: %s", code, stderr)
			}
			if stdout != tc.golden {
				t.Errorf("stdout mismatch:\n--- got ---\n%s--- want ---\n%s", stdout, tc.golden)
			}
			if !strings.Contains(stderr, tc.findings) {
				t.Errorf("stderr should count findings, got: %s", stderr)
			}
		})
	}
}

func TestRunUsageAndLoadErrors(t *testing.T) {
	chdir(t, filepath.Join("testdata", "src", "cleanmod"))
	if code, _, _ := runCLI(t, "-definitely-not-a-flag"); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
	if code, _, stderr := runCLI(t, "./no/such/dir/..."); code != 2 {
		t.Errorf("bad pattern: exit = %d, want 2 (stderr: %s)", code, stderr)
	}
}
