package lint

import (
	"strings"
	"testing"
)

// The lockorder and heldcall fixtures lock mutex fields of a named struct
// type, the one lock shape the fact layer keys ("dime.S.mu").

// --- lockorder ---

func TestLockOrderFlagsABBAInversion(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "sync"
type S struct{ a, b sync.Mutex }
func (s *S) AB() {
	s.a.Lock()
	defer s.a.Unlock()
	s.b.Lock()
	defer s.b.Unlock()
}
func (s *S) BA() {
	s.b.Lock()
	defer s.b.Unlock()
	s.a.Lock()
	defer s.a.Unlock()
}`)
	diags := expect(t, pkg, LockOrder{}, 2)
	for _, d := range diags {
		if !strings.Contains(d.Message, "lock order inversion") || !strings.Contains(d.Message, "cycle: dime.S.a -> dime.S.b") {
			t.Errorf("want inversion with cycle members, got: %s", d.Message)
		}
	}
}

func TestLockOrderCleanOnConsistentOrder(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "sync"
type S struct{ a, b sync.Mutex }
func (s *S) AB() {
	s.a.Lock()
	defer s.a.Unlock()
	s.b.Lock()
	defer s.b.Unlock()
}
func (s *S) AlsoAB() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}`)
	expect(t, pkg, LockOrder{}, 0)
}

func TestLockOrderFlagsDirectReacquisition(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "sync"
type S struct{ mu sync.Mutex }
func (s *S) Twice() {
	s.mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	s.mu.Unlock()
}`)
	diags := expect(t, pkg, LockOrder{}, 1)
	if !strings.Contains(diags[0].Message, "self-deadlock") || !strings.Contains(diags[0].Message, "dime.S.mu is Locked while dime.S.Twice already holds it") {
		t.Errorf("want direct self-deadlock, got: %s", diags[0].Message)
	}
}

func TestLockOrderFlagsReacquisitionThroughCallChain(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "sync"
type S struct{ mu sync.Mutex }
func (s *S) Outer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.helper()
}
func (s *S) helper() {
	s.mu.Lock()
	defer s.mu.Unlock()
}`)
	diags := expect(t, pkg, LockOrder{}, 1)
	msg := diags[0].Message
	if !strings.Contains(msg, "via the call to dime.S.helper") || !strings.Contains(msg, "chain:") {
		t.Errorf("want interprocedural re-acquisition with chain, got: %s", msg)
	}
}

func TestLockOrderFlagsReadToWriteUpgrade(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "sync"
type S struct{ mu sync.RWMutex }
func (s *S) Upgrade() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
}`)
	diags := expect(t, pkg, LockOrder{}, 1)
	if !strings.Contains(diags[0].Message, "read-to-write upgrade") {
		t.Errorf("want upgrade finding, got: %s", diags[0].Message)
	}
}

func TestLockOrderSuppressedByIgnore(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "sync"
type S struct{ mu sync.Mutex }
func (s *S) Twice() {
	s.mu.Lock()
	//lint:ignore lockorder intentional for the test
	s.mu.Lock()
	s.mu.Unlock()
	s.mu.Unlock()
}`)
	expect(t, pkg, LockOrder{}, 0)
}

// --- heldcall ---

func TestHeldCallFlagsSleepUnderLock(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import (
	"sync"
	"time"
)
type S struct{ mu sync.Mutex }
func (s *S) Slow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond)
}`)
	diags := expect(t, pkg, HeldCall{}, 1)
	if !strings.Contains(diags[0].Message, "time.Sleep while dime.S.Slow holds dime.S.mu") {
		t.Errorf("want sleep-under-lock, got: %s", diags[0].Message)
	}
}

func TestHeldCallCleanWhenLockReleasedFirst(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import (
	"sync"
	"time"
)
type S struct{ mu sync.Mutex }
func (s *S) Quick() {
	s.mu.Lock()
	s.mu.Unlock()
	time.Sleep(time.Millisecond)
}`)
	expect(t, pkg, HeldCall{}, 0)
}

func TestHeldCallFlagsChannelSendUnderLock(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "sync"
type S struct{ mu sync.Mutex }
func (s *S) Send(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch <- 1
}`)
	diags := expect(t, pkg, HeldCall{}, 1)
	if !strings.Contains(diags[0].Message, "channel send outside a select with default") {
		t.Errorf("want channel-send finding, got: %s", diags[0].Message)
	}
}

func TestHeldCallCleanOnSelectWithDefault(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "sync"
type S struct{ mu sync.Mutex }
func (s *S) TrySend(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case ch <- 1:
	default:
	}
}`)
	expect(t, pkg, HeldCall{}, 0)
}

func TestHeldCallFlagsBlockingCallee(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "sync"
type S struct {
	mu sync.Mutex
	wg sync.WaitGroup
}
func (s *S) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drain()
}
func (s *S) drain() {
	s.wg.Wait()
}`)
	diags := expect(t, pkg, HeldCall{}, 1)
	msg := diags[0].Message
	if !strings.Contains(msg, "call to dime.S.drain may block") || !strings.Contains(msg, "sync.WaitGroup.Wait") {
		t.Errorf("want blocking-callee with cause, got: %s", msg)
	}
}

// --- goleak ---

func TestGoLeakFlagsUncancellableLoop(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
func Serve() {
	go func() {
		for {
			step()
		}
	}()
}
func step() {}`)
	diags := expect(t, pkg, GoLeak{}, 1)
	if !strings.Contains(diags[0].Message, "no cancellation path") || !strings.Contains(diags[0].Message, "dime.Serve") {
		t.Errorf("want uncancellable-loop finding, got: %s", diags[0].Message)
	}
}

func TestGoLeakCleanOnQuitChannel(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
func Serve(quit chan struct{}) {
	go func() {
		for {
			select {
			case <-quit:
				return
			default:
			}
			step()
		}
	}()
}
func step() {}`)
	expect(t, pkg, GoLeak{}, 0)
}

func TestGoLeakCleanWhenUnreachableFromEntries(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
func spin() {
	go func() {
		for {
		}
	}()
}`)
	// spin is unexported and uncalled: not reachable from the serving roots.
	expect(t, pkg, GoLeak{}, 0)
}

func TestGoLeakFlagsNamedGoCallee(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
func Serve() {
	go pump()
}
func pump() {
	for {
	}
}`)
	expect(t, pkg, GoLeak{}, 1)
}

// --- ctxflow ---

func TestCtxFlowFlagsBackgroundOnReachablePath(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "context"
func Handle() {
	fetch(context.Background())
}
func fetch(ctx context.Context) { _ = ctx }`)
	diags := expect(t, pkg, CtxFlow{}, 1)
	if !strings.Contains(diags[0].Message, "context.Background() in dime.Handle discards the caller's context") {
		t.Errorf("want background-drop finding, got: %s", diags[0].Message)
	}
}

func TestCtxFlowFlagsUnusedCtxParam(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import (
	"context"
	"time"
)
func Wait(ctx context.Context) {
	time.Sleep(time.Millisecond)
}`)
	diags := expect(t, pkg, CtxFlow{}, 1)
	if !strings.Contains(diags[0].Message, `parameter "ctx" in dime.Wait is received but never used`) {
		t.Errorf("want unused-ctx finding, got: %s", diags[0].Message)
	}
}

func TestCtxFlowCleanWhenCtxThreaded(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "context"
func Handle(ctx context.Context) {
	fetch(ctx)
}
func fetch(ctx context.Context) { _ = ctx }`)
	expect(t, pkg, CtxFlow{}, 0)
}

func TestCtxFlowCleanOnUnreachableBackground(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "context"
func scratch() context.Context {
	return context.Background()
}`)
	// scratch is unexported and uncalled: Background here is not on any
	// request path.
	expect(t, pkg, CtxFlow{}, 0)
}

func TestCtxFlowSuppressedByIgnore(t *testing.T) {
	pkg := fixture(t, "dime", "fixture.go", `package dime
import "context"
func Handle() {
	//lint:ignore ctxflow detached span lifetime is deliberate here
	fetch(context.Background())
}
func fetch(ctx context.Context) { _ = ctx }`)
	expect(t, pkg, CtxFlow{}, 0)
}
