package watch

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestNotifierWakesEveryWaiter parks waiters at every version a publisher
// is about to pass and requires each to return a version past its own,
// with no Publish lost between a waiter's read and its park.
func TestNotifierWakesEveryWaiter(t *testing.T) {
	var n Notifier
	const versions, waiters = 50, 8
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan string, waiters)
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for after := uint64(0); after < versions; {
				got := n.Wait(ctx, after)
				if got <= after {
					errs <- "Wait returned without a newer version"
					return
				}
				after = got
			}
		}()
	}
	for v := uint64(1); v <= versions; v++ {
		n.Publish(v)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := n.Wait(ctx, versions-1); got != versions {
		t.Fatalf("final version = %d, want %d", got, versions)
	}
}

func TestNotifierWaitEndsWithContext(t *testing.T) {
	var n Notifier
	n.Publish(3)
	if got := n.Wait(context.Background(), 2); got != 3 {
		t.Fatalf("Wait behind the version = %d, want 3 at once", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if got := n.Wait(ctx, 3); got != 3 {
		t.Fatalf("Wait at the version = %d after ctx ended, want 3", got)
	}
	ch := n.Changed()
	n.Publish(4)
	select {
	case <-ch:
	default:
		t.Fatal("Publish did not close the channel Changed handed out")
	}
}
