package main

// Tests for the dimed entry point: flag handling, boot on an ephemeral port,
// serving traffic end to end, and signal-driven graceful shutdown. The
// signal path is injected through the notifySignals seam, so the test never
// signals its own process.

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dime/internal/difftest"
)

// syncBuffer is an io.Writer safe for concurrent writes (run's goroutine)
// and reads (the test polling for the serving line).
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunRejectsBadFlags pins flag rejection before any bind: an unknown
// flag, and -chaos (dimed has no fault-injection mode), exit 2 even with an
// address that could not be bound.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-addr", "256.0.0.1:http", "-chaos"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Fatalf("%v: exit %d, want 2; stderr %q", args, code, errb.String())
		}
		if !strings.Contains(errb.String(), "flag provided but not defined") {
			t.Errorf("%v: stderr missing flag error: %q", args, errb.String())
		}
	}
}

func TestRunRejectsPositionalArgs(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"extra"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2; stderr %q", code, errb.String())
	}
	if !strings.Contains(errb.String(), "unexpected arguments") {
		t.Errorf("stderr missing argument error: %q", errb.String())
	}
}

func TestRunRejectsUnbindableAddr(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-addr", "256.0.0.1:http"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr %q", code, errb.String())
	}
}

var servingLine = regexp.MustCompile(`serving on http://(\S+)`)

// TestRunServesAndShutsDownGracefully boots dimed on an ephemeral port,
// drives one corpus round trip over real TCP, injects SIGTERM through the
// notifySignals seam and requires a clean drain, exit 0, and every goroutine
// the server spawned released.
func TestRunServesAndShutsDownGracefully(t *testing.T) {
	sigc := make(chan chan<- os.Signal, 1)
	orig := notifySignals
	notifySignals = func(ch chan<- os.Signal) { sigc <- ch }
	defer func() { notifySignals = orig }()

	// "Drained cleanly" must mean it: after run returns, the listener, the
	// worker pool and every connection goroutine are gone.
	snap := difftest.Goroutines()
	defer snap.CheckReleased(t)

	var out, errb syncBuffer
	exit := make(chan int, 1)
	go func() { exit <- run([]string{"-addr", "127.0.0.1:0"}, &out, &errb) }()

	ch := <-sigc // run reached its signal wait; the listener is up
	m := servingLine.FindStringSubmatch(errb.String())
	if m == nil {
		t.Fatalf("no serving line on stderr: %q", errb.String())
	}
	base := "http://" + m[1]

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d: %s", resp.StatusCode, raw)
	}

	// One real corpus lifecycle against the booted binary surface.
	body := strings.NewReader(`{"id": "g", "profile": "scholar"}`)
	resp, err = http.Post(base+"/v1/corpora", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create corpus: status %d: %s", resp.StatusCode, raw)
	}
	var created struct {
		ID      string `json:"id"`
		Profile string `json:"profile"`
	}
	if err := json.Unmarshal(raw, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID != "g" || created.Profile != "scholar" {
		t.Fatalf("created corpus = %+v", created)
	}

	ch <- os.Interrupt
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit %d, want 0; stderr %q", code, errb.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after signal")
	}
	if !strings.Contains(errb.String(), "drained cleanly") {
		t.Errorf("stderr missing drain confirmation: %q", errb.String())
	}
}
