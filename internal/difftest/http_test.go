package difftest

import (
	"context"
	"testing"
)

// TestDiffServeNeedsWorkers pins that DiffServe refuses an empty worker
// list before touching the target: its keyed replay reads workers[0].
func TestDiffServeNeedsWorkers(t *testing.T) {
	if err := (Case{}).DiffServe(context.Background(), Target{}, "c"); err == nil {
		t.Fatal("DiffServe with no worker counts returned nil")
	}
}
