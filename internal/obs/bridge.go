package obs

import "time"

// Observer returns a probe that feeds a Registry: every span's duration
// lands in a latency histogram keyed by phase ("dime.phase.<phase>.seconds",
// and "dime.rule.<rule>.<phase>.seconds" when the span carries a rule attr —
// the per-rule histograms the cost/benefit tuning loops read), and every
// span counter increments "dime.<phase>.<name>". A nil registry uses
// Default().
func Observer(r *Registry) Probe {
	if r == nil {
		r = Default()
	}
	return observerProbe{r: r}
}

type observerProbe struct{ r *Registry }

func (p observerProbe) StartRun(name string, attrs ...Attr) Span {
	return observerSpan{r: p.r, phase: name, rule: ruleOf(attrs), start: Now()}
}

type observerSpan struct {
	r     *Registry
	phase string
	rule  string
	start time.Time
}

func ruleOf(attrs []Attr) string {
	for _, a := range attrs {
		if a.Key == "rule" {
			return a.Value
		}
	}
	return ""
}

func (s observerSpan) StartSpan(phase string, attrs ...Attr) Span {
	return observerSpan{r: s.r, phase: phase, rule: ruleOf(attrs), start: Now()}
}

func (s observerSpan) Count(name string, delta int64) {
	s.r.Counter("dime." + s.phase + "." + name).Add(delta)
}

func (s observerSpan) End() {
	secs := Since(s.start).Seconds()
	s.r.Histogram("dime.phase."+s.phase+".seconds", nil).Observe(secs)
	if s.rule != "" {
		s.r.Histogram("dime.rule."+s.rule+"."+s.phase+".seconds", nil).Observe(secs)
	}
}
