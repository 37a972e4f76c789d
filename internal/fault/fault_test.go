package fault

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestGlobMatch pins the '*' glob semantics rules match paths with.
func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"", "/anything", true},
		{"/v1/corpora", "/v1/corpora", true},
		{"/v1/corpora", "/v1/corpora/x", false},
		{"/v1/*", "/v1/corpora/x/discover", true},
		{"*/discover", "/v1/corpora/x/discover", true},
		{"*/discover", "/v1/corpora/x/entities", false},
		{"/v1/*/entities", "/v1/corpora/g/entities", true},
		{"*", "", true},
		{"/v1/*/a*b", "/v1/x/a-middle-b", true},
		{"/v1/*/a*b", "/v1/x/b-middle-a", false},
	}
	for _, c := range cases {
		if got := globMatch(c.pattern, c.s); got != c.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

// TestDecideDeterministic pins the determinism contract: two injectors with
// the same seed and rules make identical decisions over the same sequential
// request stream.
func TestDecideDeterministic(t *testing.T) {
	rules := []Rule{
		{Name: "lat", P: 0.5, Kind: KindLatency, Latency: time.Millisecond},
		{Name: "s500", Method: "GET", P: 0.3, Kind: KindStatus, Status: 500},
		{Name: "reset", P: 0.2, Kind: KindReset},
	}
	a := NewInjector(Options{Seed: 42, Rules: rules})
	b := NewInjector(Options{Seed: 42, Rules: rules})
	for i := 0; i < 500; i++ {
		method := "GET"
		if i%3 == 0 {
			method = "POST"
		}
		la, pa := a.decide(method, "/v1/x")
		lb, pb := b.decide(method, "/v1/x")
		if la != lb {
			t.Fatalf("step %d: latency %v vs %v", i, la, lb)
		}
		if (pa == nil) != (pb == nil) {
			t.Fatalf("step %d: primary %v vs %v", i, pa, pb)
		}
		if pa != nil && pa.rule.Name != pb.rule.Name {
			t.Fatalf("step %d: rule %q vs %q", i, pa.rule.Name, pb.rule.Name)
		}
	}
	if a.Fired() != b.Fired() || a.Fired() == 0 {
		t.Fatalf("fire totals diverged or zero: %d vs %d", a.Fired(), b.Fired())
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("rule %d snapshot %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

// okHandler answers 200 with a fixed JSON body.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ok":true,"pad":"0123456789012345678901234567890123456789"}`))
	})
}

// TestMiddlewareStatus pins the status fault at the server: the wrapped
// handler never runs and the synthesized body carries the rule's status and
// Retry-After.
func TestMiddlewareStatus(t *testing.T) {
	ran := false
	inner := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) { ran = true })
	inj := NewInjector(Options{Seed: 1, Rules: []Rule{
		{Name: "s503", P: 1, Kind: KindStatus, Status: 503, RetryAfter: "7"},
	}})
	ts := httptest.NewServer(inj.Middleware(inner))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") != "7" {
		t.Fatalf("status %d Retry-After %q, want 503/7", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(string(body), "injected 503") {
		t.Fatalf("body %q missing injected marker", body)
	}
	if ran {
		t.Fatal("handler ran despite status fault")
	}
}

// TestMiddlewareReset pins the reset fault: the client observes a transport
// error, not a response.
func TestMiddlewareReset(t *testing.T) {
	inj := NewInjector(Options{Seed: 1, Rules: []Rule{{Name: "r", P: 1, Kind: KindReset}}})
	ts := httptest.NewServer(inj.Middleware(okHandler()))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/x")
	if err == nil {
		resp.Body.Close()
		t.Fatalf("reset fault produced a response (status %d), want transport error", resp.StatusCode)
	}
}

// TestMiddlewareTruncate pins the truncate fault: the handler runs, the
// response declares its full length, and reading the body fails with an
// unexpected EOF.
func TestMiddlewareTruncate(t *testing.T) {
	inj := NewInjector(Options{Seed: 1, Rules: []Rule{{Name: "t", P: 1, Kind: KindTruncate}}})
	ts := httptest.NewServer(inj.Middleware(okHandler()))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("read %d bytes with no error, want unexpected EOF", len(body))
	}
	if int64(len(body)) >= resp.ContentLength {
		t.Fatalf("read %d bytes of declared %d, want a strict prefix", len(body), resp.ContentLength)
	}
}

// TestTransportStatus pins the client-side status fault: the response is
// synthesized without the request reaching the server.
func TestTransportStatus(t *testing.T) {
	reached := false
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) { reached = true }))
	defer ts.Close()
	inj := NewInjector(Options{Seed: 1, Rules: []Rule{
		{Name: "s500", P: 1, Kind: KindStatus, Status: 500},
	}})
	hc := &http.Client{Transport: inj.Transport(nil)}
	resp, err := hc.Get(ts.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 500 || !strings.Contains(string(body), "injected 500") {
		t.Fatalf("status %d body %q, want synthesized 500", resp.StatusCode, body)
	}
	if reached {
		t.Fatal("request reached the server despite client-side status fault")
	}
}

// TestTransportReset pins the client-side reset fault: a connection-reset
// error surfaces and wraps syscall.ECONNRESET.
func TestTransportReset(t *testing.T) {
	inj := NewInjector(Options{Seed: 1, Rules: []Rule{{Name: "r", P: 1, Kind: KindReset}}})
	hc := &http.Client{Transport: inj.Transport(nil)}
	_, err := hc.Get("http://127.0.0.1:0/never-dialed")
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("error %v does not wrap ECONNRESET", err)
	}
}

// TestTransportTruncate pins the client-side truncate fault: the real
// response arrives but its body ends in io.ErrUnexpectedEOF.
func TestTransportTruncate(t *testing.T) {
	ts := httptest.NewServer(okHandler())
	defer ts.Close()
	inj := NewInjector(Options{Seed: 1, Rules: []Rule{{Name: "t", P: 1, Kind: KindTruncate}}})
	hc := &http.Client{Transport: inj.Transport(nil)}
	resp, err := hc.Get(ts.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read error %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestLatencyRespectsCancel pins that injected latency does not hold a
// canceled request: a latency sleep far above the test budget returns as
// soon as the context dies.
func TestLatencyRespectsCancel(t *testing.T) {
	done := make(chan struct{})
	close(done)
	start := time.Now()
	sleepCtx(done, time.Hour)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("sleepCtx held a canceled context for %v", elapsed)
	}
}
