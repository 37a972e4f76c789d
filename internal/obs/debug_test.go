package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestServeDebugEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("dime.test.hits").Add(3)
	fr := NewFlightRecorder(FlightOptions{Capacity: 8})
	s := fr.StartRun("debug-test-run")
	s.Count("events", 2)
	s.End()
	srv, err := ServeDebug("127.0.0.1:0", r, fr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := client.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ → %d, body %.80q", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "# TYPE dime_test_hits counter") ||
		!strings.Contains(body, "dime_test_hits 3") {
		t.Errorf("/metrics → %d, body %q", code, body)
	}
	code, body := get("/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("/debug/flight → %d", code)
	}
	var export FlightExport
	if err := json.Unmarshal([]byte(body), &export); err != nil {
		t.Fatalf("/debug/flight is not JSON: %v", err)
	}
	if export.Tool != "dime-flight" || export.Kept != 1 || len(export.Traces) != 1 ||
		export.Traces[0].Name != "debug-test-run" {
		t.Errorf("/debug/flight export = %+v", export)
	}
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(body, "dime debug server") {
		t.Errorf("/ → %d, body %q", code, body)
	}
	// /metrics is the one metrics format; /debug/vars is not served.
	for _, path := range []string{"/nope", "/debug/vars"} {
		if code, _ := get(path); code != http.StatusNotFound {
			t.Errorf("%s → %d, want 404", path, code)
		}
	}
}

func TestServeDebugBadAddr(t *testing.T) {
	if _, err := ServeDebug("256.256.256.256:99999", NewRegistry(), nil); err == nil {
		t.Fatal("expected listen error")
	}
}
