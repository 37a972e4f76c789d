package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// tinyOpts keeps the experiment tests fast.
var tinyOpts = Options{
	Pages:             6,
	PubsPerPage:       60,
	AmazonPerCategory: 24,
	Seed:              7,
}

// cell parses a table cell as float.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestExp1ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness; skipped in -short")
	}
	tables, err := Exp1(tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d", len(tables))
	}
	// Figure 6(a): DIME's F-measure must beat both baselines.
	fig6a := tables[0]
	var dimeF, crF, svmF float64
	for _, row := range fig6a.Rows {
		switch row[0] {
		case "DIME":
			dimeF = cell(t, row[3])
		case "CR":
			crF = cell(t, row[3])
		case "SVM":
			svmF = cell(t, row[3])
		}
	}
	if dimeF <= crF || dimeF <= svmF {
		t.Errorf("Fig 6(a): DIME F=%.2f should beat CR %.2f and SVM %.2f", dimeF, crF, svmF)
	}
	// Figure 6(b-d): averaged across error rates, DIME at least matches CR
	// (single rates can flip on the tiny test corpora).
	var dSum, cSum float64
	for _, row := range tables[1].Rows {
		dSum += cell(t, row[3])
		cSum += cell(t, row[6])
	}
	if dSum < cSum-0.05*float64(len(tables[1].Rows)) {
		t.Errorf("Fig 6(b-d): DIME mean F %.3f well below CR mean F %.3f",
			dSum/float64(len(tables[1].Rows)), cSum/float64(len(tables[1].Rows)))
	}
}

func TestExp3ScrollbarShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness; skipped in -short")
	}
	tables, err := Exp3(tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	fig7a := tables[0]
	if len(fig7a.Rows) != 3 {
		t.Fatalf("Fig 7(a) rows = %d", len(fig7a.Rows))
	}
	// Recall must be non-decreasing and precision non-increasing across
	// levels (the scrollbar trade-off).
	for i := 1; i < len(fig7a.Rows); i++ {
		prevP, prevR := cell(t, fig7a.Rows[i-1][1]), cell(t, fig7a.Rows[i-1][2])
		curP, curR := cell(t, fig7a.Rows[i][1]), cell(t, fig7a.Rows[i][2])
		if curR+1e-9 < prevR {
			t.Errorf("Fig 7(a): recall decreased at level %d (%.2f → %.2f)", i+1, prevR, curR)
		}
		if curP-1e-9 > prevP+0.05 {
			t.Errorf("Fig 7(a): precision rose sharply at level %d (%.2f → %.2f)", i+1, prevP, curP)
		}
	}
	// Figure 7(b-d): NR2 recall ≥ NR1 recall at every error rate.
	for _, row := range tables[1].Rows {
		if cell(t, row[5])+1e-9 < cell(t, row[2]) {
			t.Errorf("Fig 7(b-d) %s: NR2 recall below NR1", row[0])
		}
	}
}

func TestExp3DetailCoversAllPages(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness; skipped in -short")
	}
	tables, err := Exp3Detail(tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != len(fig8Owners) {
		t.Fatalf("Fig 8 rows = %d, want %d", len(tables[0].Rows), len(fig8Owners))
	}
	for i, row := range tables[0].Rows {
		if row[0] != fig8Owners[i] {
			t.Fatalf("row %d is %q, want %q", i, row[0], fig8Owners[i])
		}
		// NR3 recall ≥ NR1 recall per page.
		if cell(t, row[6])+1e-9 < cell(t, row[2]) {
			t.Errorf("page %s: NR3 recall below NR1", row[0])
		}
	}
}

func TestExp4ErrorsConcentrateInSmallPartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness; skipped in -short")
	}
	tables, err := Exp4(tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	var smallErr, bigErr, bigEnt float64
	for _, row := range tables[0].Rows {
		smallErr += cell(t, row[3])
		bigEnt += cell(t, row[8])
		bigErr += cell(t, row[9])
	}
	if smallErr == 0 {
		t.Error("Table I: no errors in small partitions at all")
	}
	if bigEnt > 0 && bigErr/bigEnt > 0.1 {
		t.Errorf("Table I: big partitions contain %.0f errors of %.0f entities — too dirty", bigErr, bigEnt)
	}
}

// TestExp5SmallSweepRuns runs Exp5's harness on two sizes per figure: the
// sweep's sizes come only from Options.Full, so Exp5 itself would time every
// method at the five quick sizes. cmd/experiments -exp 5 keeps those.
func TestExp5SmallSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness; skipped in -short")
	}
	sizes := [][]int{{200, 400}, {400, 800}} // Scholar, then Amazon
	tables, err := exp5(tinyOpts, sizes[0], sizes[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d", len(tables))
	}
	for i, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Fatalf("%s has no rows", tb.ID)
		}
		if len(tb.Rows) != len(sizes[i]) {
			t.Fatalf("%s has %d rows, want one per size %v", tb.ID, len(tb.Rows), sizes[i])
		}
		for _, row := range tb.Rows {
			for _, c := range row[1:] {
				if v := cell(t, c); v < 0 {
					t.Fatalf("%s: negative runtime %q", tb.ID, c)
				}
			}
		}
	}
}

func TestExp6RuleGenBeatsOrMatchesBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness; skipped in -short")
	}
	tables, err := Exp6(tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		if len(tb.Rows) != 9 { // folds 2..10
			t.Fatalf("%s rows = %d", tb.ID, len(tb.Rows))
		}
		for _, row := range tb.Rows {
			ours := cell(t, row[1])
			if ours < 0.5 {
				t.Errorf("%s folds=%s: DIME-Rule F=%.2f is implausibly low", tb.ID, row[0], ours)
			}
		}
	}
}

func TestTableFprint(t *testing.T) {
	tb := Table{
		ID:     "T",
		Title:  "demo",
		Header: []string{"A", "Blong"},
		Rows:   [][]string{{"x", "1"}, {"yyyy", "22"}},
		Notes:  "a note",
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== T — demo ==", "A     Blong", "yyyy  22", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPairExamplesBalanced(t *testing.T) {
	sc := newScholarSetup(Options{Pages: 3, PubsPerPage: 50, Seed: 3})
	exs, err := pairExamples(sc.cfg, sc.pages, 40, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	var pos, neg int
	for _, ex := range exs {
		if ex.Same {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatalf("pos=%d neg=%d", pos, neg)
	}
	if pos > 40 || neg > 30 {
		t.Fatalf("quota overflow: pos=%d neg=%d", pos, neg)
	}
	if _, err := pairExamples(sc.cfg, nil, 10, 10, 1); err == nil {
		t.Fatal("no groups should fail")
	}
}

func TestAblationIdenticalResults(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness; skipped in -short")
	}
	tables, err := Ablation(tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 6 {
		t.Fatalf("ablation rows = %d", len(rows))
	}
	// Every variant must discover the same number of entities (the Found
	// column), and the signature filter must slash verifications versus
	// naive DIME.
	found := rows[0][5]
	for _, row := range rows {
		if row[5] != found {
			t.Fatalf("variant %q found %s, baseline found %s", row[0], row[5], found)
		}
	}
	plusVerified := cell(t, rows[0][2])
	naiveVerified := cell(t, rows[len(rows)-1][2])
	if plusVerified*3 > naiveVerified {
		t.Fatalf("signature filter saved too little: %v vs %v", plusVerified, naiveVerified)
	}
}

func TestFprintChart(t *testing.T) {
	tb := Table{
		ID:     "C",
		Title:  "chart demo",
		Header: []string{"Row", "Metric", "Text"},
		Rows:   [][]string{{"a", "0.5", "x"}, {"b", "1.0", "y"}},
	}
	var buf bytes.Buffer
	tb.FprintChart(&buf)
	out := buf.String()
	if !strings.Contains(out, "Metric") {
		t.Fatalf("chart missing numeric column:\n%s", out)
	}
	if strings.Contains(out, "Text\n") {
		t.Fatalf("chart rendered non-numeric column:\n%s", out)
	}
	// Bar for 1.0 must be longer than for 0.5.
	lines := strings.Split(out, "\n")
	var aBar, bBar int
	for _, l := range lines {
		if strings.Contains(l, "a ") && strings.Contains(l, "█") {
			aBar = strings.Count(l, "█")
		}
		if strings.Contains(l, "b ") && strings.Contains(l, "█") {
			bBar = strings.Count(l, "█")
		}
	}
	if bBar <= aBar || aBar == 0 {
		t.Fatalf("bars not scaled: a=%d b=%d", aBar, bBar)
	}
}
