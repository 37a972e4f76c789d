package dime_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dime/internal/core"
	"dime/internal/datagen"
	"dime/internal/difftest"
	"dime/internal/presets"
)

// answersFile pins every DIME+ answer of the answer-digest cases.
const answersFile = "testdata/answers.txt"

var updateAnswers = flag.Bool("update-answers", false, "rewrite "+answersFile+" from this build's DIME+ answers")

// TestAnswerDigest pins DIME+'s answers across commits. Every other
// determinism check compares two runs of one build (DIME against DIME+, the
// served replay against in-process DIME+), so a change that moves every path
// the same way passes them all; this test compares against answers written
// by an earlier build. testdata/answers.txt holds one line per case — every
// case of difftest.Corpus(210, 0xD1FE), plus the Scholar-600 (seed 23) and
// DBGen-3000 (seed 29) groups of TestDIMEPlusAllocs, the latter past
// BenefitSortLimit so it pins the streaming verification order — with three
// sha256 columns:
//
//   - structure: the partitions, the pivot and every scrollbar level;
//   - witnesses: every marked partition's witness, by partition index;
//   - stats: every Stats field, in declaration order.
//
// The file is check data, and its policy is part of the contract. The stats
// column changes only with a deliberate change to the algorithm's cost, and
// the change's notes name the counters that moved. The structure and witness
// columns change only with a stated change of semantics. After such a
// change, rewrite the file with
//
//	go test -run TestAnswerDigest -update-answers .
func TestAnswerDigest(t *testing.T) {
	got := make(map[string][3]string)
	var names []string
	for _, c := range answerCases() {
		res, err := core.DIMEPlus(c.Group, core.Options{Config: c.Config, Rules: c.Rules})
		if err != nil {
			t.Fatalf("case %s: %v", c.Name, err)
		}
		got[c.Name] = answerDigest(res)
		names = append(names, c.Name)
	}
	if *updateAnswers {
		writeAnswers(t, names, got)
		return
	}

	want := readAnswers(t)
	columns := [3]string{"structure", "witnesses", "stats"}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("case %s: no line in %s", name, answersFile)
			continue
		}
		for col := range columns {
			if got[name][col] != w[col] {
				t.Errorf("case %s: %s digest %s, want %s", name, columns[col], got[name][col], w[col])
			}
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s names case %s, which this build does not run", answersFile, name)
		}
	}
}

// answerCases lists the digest's cases in file order.
func answerCases() []difftest.Case {
	cases := difftest.Corpus(210, 0xD1FE)
	gopts, opts := scholarBenchGroup()
	dbgenCfg := presets.DBGenConfig()
	return append(cases,
		difftest.Case{
			Name: "scholar-600-seed23", Group: datagen.Scholar(*gopts),
			Config: opts.Config, Rules: opts.Rules,
		},
		difftest.Case{
			Name:   "dbgen-3000-seed29",
			Group:  datagen.DBGen(datagen.DBGenOptions{NumEntities: 3000, ErrorRate: 0.10, Seed: 29}),
			Config: dbgenCfg, Rules: presets.DBGenRules(dbgenCfg),
		})
}

// answerDigest hashes a result into its structure, witness and stats
// columns.
func answerDigest(res *core.Result) [3]string {
	sum := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

	structure := sha256.New()
	for _, p := range res.Partitions {
		fmt.Fprintf(structure, "partition %v\n", p)
	}
	fmt.Fprintf(structure, "pivot %d\n", res.Pivot)
	for _, lv := range res.Levels {
		fmt.Fprintf(structure, "level %q %v %q\n", lv.RuleName, lv.PartitionIndexes, lv.EntityIDs)
	}

	witnesses := sha256.New()
	marked := make([]int, 0, len(res.Witnesses))
	for pi := range res.Witnesses {
		marked = append(marked, pi)
	}
	sort.Ints(marked)
	for _, pi := range marked {
		w := res.Witnesses[pi]
		fmt.Fprintf(witnesses, "%d %q %q %q\n", pi, w.Rule, w.EntityID, w.PivotID)
	}

	stats := sha256.New()
	sv := reflect.ValueOf(res.Stats)
	for i := 0; i < sv.NumField(); i++ {
		fmt.Fprintf(stats, "%s %v\n", sv.Type().Field(i).Name, sv.Field(i).Interface())
	}
	return [3]string{sum(structure), sum(witnesses), sum(stats)}
}

// readAnswers parses the digest file: "#" comment lines, then one
// tab-separated "name structure witnesses stats" line per case (Amazon case
// names hold spaces).
func readAnswers(t *testing.T) map[string][3]string {
	t.Helper()
	f, err := os.Open(answersFile)
	if err != nil {
		t.Fatalf("%v (write it with -update-answers)", err)
	}
	defer f.Close()
	want := make(map[string][3]string)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) != 4 {
			t.Fatalf("%s:%d: %d fields, want 4", answersFile, line, len(fields))
		}
		want[fields[0]] = [3]string{fields[1], fields[2], fields[3]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// writeAnswers rewrites the digest file from this build's answers.
func writeAnswers(t *testing.T, names []string, got map[string][3]string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# DIME+ answer digest: case, sha256 of structure, witnesses and stats.\n")
	b.WriteString("# Checked by TestAnswerDigest; see its doc before rewriting.\n")
	for _, name := range names {
		d := got[name]
		fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n", name, d[0], d[1], d[2])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(answersFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d cases to %s", len(names), answersFile)
}
