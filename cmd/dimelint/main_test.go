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

const fixtureGoldenJSON = `{
  "findings": [
    {
      "file": "lib.go",
      "line": 11,
      "col": 9,
      "analyzer": "detersafe",
      "message": "time.Now (wall clock) in fixturemod.tick is reachable from result entry point fixturemod.Discover; results must not depend on it (chain: fixturemod.Discover -> fixturemod.tick)"
    },
    {
      "file": "lib.go",
      "line": 15,
      "col": 6,
      "analyzer": "panicprop",
      "message": "exported fixturemod.Outer can reach panic via fixturemod.inner (chain: fixturemod.Outer -> fixturemod.inner); return an error or absorb the panic behind recover/MustX"
    },
    {
      "file": "lib.go",
      "line": 20,
      "col": 2,
      "analyzer": "panicprop",
      "message": "panic in library function inner; return an error or move the panic into a Must* constructor"
    },
    {
      "file": "lib.go",
      "line": 24,
      "col": 11,
      "analyzer": "float-threshold",
      "message": "exact == on float values; use sim.Eq (epsilon 1e-9) instead"
    }
  ],
  "stale": []
}
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

func TestRunJSONGolden(t *testing.T) {
	chdir(t, filepath.Join("testdata", "src", "fixturemod"))
	code, stdout, _ := runCLI(t, "-json")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if stdout != fixtureGoldenJSON {
		t.Errorf("stdout mismatch:\n--- got ---\n%s--- want ---\n%s", stdout, fixtureGoldenJSON)
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

// TestRunBaselineWorkflow records each fixture module's findings with
// -write-baseline and checks the gate around them: a fully baselined run is
// clean, dropping an entry resurfaces exactly that finding, and an entry
// whose finding no longer occurs is reported stale without failing. One
// baseline covers every analyzer, so the lockmod case gates the locklint
// findings through the same -baseline.
func TestRunBaselineWorkflow(t *testing.T) {
	trimmedLock := strings.TrimSuffix(lockGolden, "\n")
	for _, tc := range []struct {
		mod string
		// first is the finding of baseline entry 0. Entries sort by (file,
		// analyzer, message): fixturemod's is the detersafe finding, the
		// golden's first line; lockmod's is the heldcall "call to
		// lockmod.drain" finding, the golden's last line.
		first string
	}{
		{"fixturemod", fixtureGolden[:strings.Index(fixtureGolden, "\n")+1]},
		{"lockmod", lockGolden[strings.LastIndex(trimmedLock, "\n")+1:]},
	} {
		t.Run(tc.mod, func(t *testing.T) {
			baseline := filepath.Join(t.TempDir(), "baseline.json")
			chdir(t, filepath.Join("testdata", "src", tc.mod))

			// Record the current findings.
			code, _, stderr := runCLI(t, "-write-baseline", baseline)
			if code != 0 || !strings.Contains(stderr, "recorded 4 finding(s)") {
				t.Fatalf("write-baseline: exit=%d stderr=%s", code, stderr)
			}

			// A fully baselined run is clean.
			code, stdout, stderr := runCLI(t, "-baseline", baseline)
			if code != 0 || stdout != "" {
				t.Fatalf("baselined run: exit=%d stdout=%q stderr=%s", code, stdout, stderr)
			}

			// Dropping an entry makes exactly that finding fresh again.
			b, err := lint.ReadBaseline(baseline)
			if err != nil {
				t.Fatal(err)
			}
			full := b.Findings
			b.Findings = full[1:]
			if err := b.Write(baseline); err != nil {
				t.Fatal(err)
			}
			code, stdout, _ = runCLI(t, "-baseline", baseline)
			if code != 1 {
				t.Fatalf("new-finding run: exit = %d, want 1", code)
			}
			if stdout != tc.first {
				t.Errorf("only the unbaselined finding should print:\n--- got ---\n%s--- want ---\n%s", stdout, tc.first)
			}

			// A baseline entry whose finding no longer occurs is reported
			// stale on stderr without failing the run.
			b.Findings = append(full, lint.BaselineFinding{File: "gone.go", Analyzer: "detersafe", Message: "no longer here"})
			if err := b.Write(baseline); err != nil {
				t.Fatal(err)
			}
			code, _, stderr = runCLI(t, "-baseline", baseline)
			if code != 0 {
				t.Fatalf("stale-entry run: exit = %d, want 0", code)
			}
			if !strings.Contains(stderr, "stale baseline entry") || !strings.Contains(stderr, "gone.go") {
				t.Errorf("want stale-entry warning on stderr, got: %s", stderr)
			}
		})
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

// TestRunOnlyBaselineInteraction checks the documented -only/-baseline
// contract: entries for unselected analyzers are neither applied nor
// reported stale.
func TestRunOnlyBaselineInteraction(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "baseline.json")
	chdir(t, filepath.Join("testdata", "src", "fixturemod"))

	if code, _, stderr := runCLI(t, "-write-baseline", baseline); code != 0 {
		t.Fatalf("write-baseline: exit=%d stderr=%s", code, stderr)
	}
	// The full baseline holds entries for three analyzers; a detersafe-only
	// run must stay clean and must not call the other entries stale.
	code, stdout, stderr := runCLI(t, "-only", "detersafe", "-baseline", baseline)
	if code != 0 || stdout != "" {
		t.Fatalf("narrowed baselined run: exit=%d stdout=%q stderr=%s", code, stdout, stderr)
	}
	if strings.Contains(stderr, "stale") {
		t.Errorf("unselected analyzers' entries reported stale: %s", stderr)
	}
}

// TestRunJSONStale checks that stale entries surface in the -json object.
func TestRunJSONStale(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "baseline.json")
	chdir(t, filepath.Join("testdata", "src", "fixturemod"))

	if code, _, stderr := runCLI(t, "-write-baseline", baseline); code != 0 {
		t.Fatalf("write-baseline: exit=%d stderr=%s", code, stderr)
	}
	b, err := lint.ReadBaseline(baseline)
	if err != nil {
		t.Fatal(err)
	}
	b.Findings = append(b.Findings, lint.BaselineFinding{File: "gone.go", Analyzer: "detersafe", Message: "no longer here", Count: 2})
	if err := b.Write(baseline); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ := runCLI(t, "-json", "-baseline", baseline)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stale entries do not fail)", code)
	}
	if !strings.Contains(stdout, `"findings": [],`) {
		t.Errorf("want empty findings array, got:\n%s", stdout)
	}
	for _, frag := range []string{`"file": "gone.go"`, `"message": "no longer here"`, `"count": 2`} {
		if !strings.Contains(stdout, frag) {
			t.Errorf("stale array missing %s in:\n%s", frag, stdout)
		}
	}
}

// lockGolden is the locklint text output over the lockmod fixture: an AB/BA
// lock-order inversion reported from both sides, a direct sleep under a held
// lock, and a blocking call chain under a held lock.
const lockGolden = `lib.go:20:2: lockorder: lock order inversion: lockmod.wm acquired while lockmod.PushPull holds lockmod.mu, but another path acquires them in the opposite order (cycle: lockmod.mu -> lockmod.wm): potential deadlock
lib.go:28:2: lockorder: lock order inversion: lockmod.mu acquired while lockmod.PullPush holds lockmod.wm, but another path acquires them in the opposite order (cycle: lockmod.mu -> lockmod.wm): potential deadlock
lib.go:36:2: heldcall: time.Sleep while lockmod.SlowFlush holds lockmod.mu
lib.go:44:2: heldcall: call to lockmod.drain may block (time.Sleep; chain: lockmod.drain) while lockmod.Relay holds lockmod.wm
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

// lockGraphGolden is the -graph DOT dump over lockmod: the call graph
// followed by the lock-acquisition graph, whose AB/BA pair is visible as the
// two opposing edges.
const lockGraphGolden = `digraph callgraph {
  "lockmod.PullPush";
  "lockmod.PushPull";
  "lockmod.Relay";
  "lockmod.Relay" -> "lockmod.drain" [label="call"];
  "lockmod.SlowFlush";
  "lockmod.drain";
}
digraph lockgraph {
  "lockmod.mu";
  "lockmod.wm";
  "lockmod.mu" -> "lockmod.wm" [label="lockmod.PushPull"];
  "lockmod.wm" -> "lockmod.mu" [label="lockmod.PullPush"];
}
`

// TestRunLockLintFixtures proves each locklint analyzer on its violating
// fixture module with golden text output, via the -only locklint group
// alias.
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
			code, stdout, stderr := runCLI(t, "-only", "locklint")
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

// TestRunLockLintAlias checks that "locklint" in -only expands to exactly
// the four concurrency analyzers.
func TestRunLockLintAlias(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list", "-only", "locklint")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range lint.LockLintNames() {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list -only locklint missing %s:\n%s", name, stdout)
		}
	}
	if strings.Contains(stdout, "detersafe") || strings.Contains(stdout, "panicprop") {
		t.Errorf("-list -only locklint selected analyzers outside the group:\n%s", stdout)
	}
}

// TestRunGraphGolden checks the -graph DOT dump of the call graph and
// lock-acquisition graph over lockmod.
func TestRunGraphGolden(t *testing.T) {
	chdir(t, filepath.Join("testdata", "src", "lockmod"))
	code, stdout, stderr := runCLI(t, "-graph")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr)
	}
	if stdout != lockGraphGolden {
		t.Errorf("graph mismatch:\n--- got ---\n%s--- want ---\n%s", stdout, lockGraphGolden)
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
	if code, _, stderr := runCLI(t, "-baseline", "absent.json"); code != 2 {
		t.Errorf("missing baseline: exit = %d, want 2 (stderr: %s)", code, stderr)
	}
}
