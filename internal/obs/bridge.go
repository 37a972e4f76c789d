package obs

import (
	"context"
	"io"
	"log/slog"
	"time"
)

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

// Logged returns a probe that emits one slog record per completed span at
// the given level: span name, duration, attrs and counters. Useful with
// level debug to watch where a long batch run spends its time.
func Logged(l *slog.Logger, level slog.Level) Probe {
	if l == nil {
		return nil
	}
	return logProbe{l: l, level: level}
}

type logProbe struct {
	l     *slog.Logger
	level slog.Level
}

func (p logProbe) StartRun(name string, attrs ...Attr) Span {
	return p.newSpan(name, attrs)
}

func (p logProbe) newSpan(name string, attrs []Attr) *logSpan {
	s := &logSpan{p: p, name: name, start: Now()}
	for _, a := range attrs {
		s.attrs = append(s.attrs, slog.String(a.Key, a.Value))
	}
	return s
}

type logSpan struct {
	p     logProbe
	name  string
	start time.Time
	attrs []slog.Attr
}

func (s *logSpan) StartSpan(phase string, attrs ...Attr) Span {
	return s.p.newSpan(phase, attrs)
}

func (s *logSpan) Count(name string, delta int64) {
	s.attrs = append(s.attrs, slog.Int64(name, delta))
}

func (s *logSpan) End() {
	attrs := append([]slog.Attr{slog.Duration("dur", Since(s.start))}, s.attrs...)
	//lint:ignore ctxflow the span outlives any request scope by design: End fires during teardown, and slog's handler only consults the ctx for trace decoration this bridge does not use
	s.p.l.LogAttrs(context.Background(), s.p.level, s.name, attrs...)
}

// NewLogger builds a text slog.Logger writing to w at the given level, the
// logger the CLI tools pass to Logged.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}
