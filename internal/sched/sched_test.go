package sched

import (
	"context"
	"sync"
	"testing"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/mgt"
)

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		err  bool
	}{
		{"", Static, false},
		{"static", Static, false},
		{"stealing", Stealing, false},
		{"dynamic", 0, true},
		{"Static", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseMode(tc.in)
		if tc.err != (err != nil) {
			t.Errorf("ParseMode(%q) error = %v, want error %v", tc.in, err, tc.err)
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseMode(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if Static.String() != "static" || Stealing.String() != "stealing" {
		t.Errorf("String round-trip broken: %q %q", Static, Stealing)
	}
}

func TestChunksFor(t *testing.T) {
	if got := ChunksFor(4, 0); got != 4*DefaultChunksPerWorker {
		t.Errorf("ChunksFor(4, 0) = %d, want %d", got, 4*DefaultChunksPerWorker)
	}
	if got := ChunksFor(3, 5); got != 15 {
		t.Errorf("ChunksFor(3, 5) = %d, want 15", got)
	}
	if got := ChunksFor(0, 2); got != 2 {
		t.Errorf("ChunksFor(0, 2) = %d, want 2 (workers clamped to 1)", got)
	}
}

// TestLedgerFold checks the folding rules: wall sums (sequential chunks),
// counters sum, range becomes the hull.
func TestLedgerFold(t *testing.T) {
	var l Ledger
	l.Worker = 3
	l.FoldWorker(100, 200, 1, mgt.Stats{Triangles: 5, Passes: 2, CmpOps: 10, Wall: 100 * time.Millisecond})
	l.FoldWorker(10, 40, 1, mgt.Stats{Triangles: 7, Passes: 1, CmpOps: 30, Wall: 50 * time.Millisecond})
	if l.Chunks != 2 {
		t.Errorf("Chunks = %d, want 2", l.Chunks)
	}
	if l.Lo != 10 || l.Hi != 200 {
		t.Errorf("hull = [%d,%d), want [10,200)", l.Lo, l.Hi)
	}
	if l.Stats.Triangles != 12 || l.Stats.Passes != 3 || l.Stats.CmpOps != 40 {
		t.Errorf("folded stats = %+v", l.Stats)
	}
	if l.Stats.Wall != 150*time.Millisecond {
		t.Errorf("wall = %v, want summed 150ms (not the straggler max)", l.Stats.Wall)
	}
}

// unitChunks returns n one-edge chunks; chunk i is [i, i+1).
func unitChunks(n int) []balance.Range {
	chunks := make([]balance.Range, n)
	for i := range chunks {
		chunks[i] = balance.Range{Lo: uint64(i), Hi: uint64(i + 1)}
	}
	return chunks
}

// TestDispenserBatches checks consecutive batch claims and the start index
// that orders listing segments.
func TestDispenserBatches(t *testing.T) {
	ctx := context.Background()
	chunks := unitChunks(10)
	d := NewDispenser(chunks)
	start, batch, _ := d.NextBatch(ctx, 4, 0)
	if start != 0 || len(batch) != 4 {
		t.Fatalf("first batch start=%d len=%d", start, len(batch))
	}
	start, batch, _ = d.NextBatch(ctx, 4, 1)
	if start != 4 || len(batch) != 4 || batch[0].Lo != 4 {
		t.Fatalf("second batch start=%d len=%d first=%+v", start, len(batch), batch[0])
	}
	if d.Remaining() != 2 {
		t.Fatalf("Remaining = %d, want 2", d.Remaining())
	}
	start, batch, _ = d.NextBatch(ctx, 4, 0)
	if start != 8 || len(batch) != 2 {
		t.Fatalf("tail batch start=%d len=%d", start, len(batch))
	}
	for i := 0; i < 3; i++ {
		d.Done()
	}
	if _, batch, _ = d.NextBatch(ctx, 4, 0); len(batch) != 0 {
		t.Fatalf("drained dispenser returned %d chunks", len(batch))
	}
	// n < 1 is clamped to 1, not an infinite loop.
	d2 := NewDispenser(chunks[:1])
	if _, b, _ := d2.NextBatch(ctx, 0, 0); len(b) != 1 {
		t.Fatalf("NextBatch(0) = %d chunks, want 1", len(b))
	}
}

// TestDispenserRequeue covers the fault-tolerance path: a requeued batch is
// served before fresh chunks, carries its retry count, keeps its global
// start index, never returns to the node that failed it, and splits
// contiguously when the claimer asks for fewer chunks.
func TestDispenserRequeue(t *testing.T) {
	ctx := context.Background()
	chunks := unitChunks(12)
	d := NewDispenser(chunks)
	start, batch, _ := d.NextBatch(ctx, 4, 2)
	if start != 0 || len(batch) != 4 {
		t.Fatalf("first batch start=%d len=%d", start, len(batch))
	}
	// Node 2 dies holding [0,4); its driver puts the batch back.
	d.Requeue(start, batch, 1, 2)
	if d.Remaining() != 12 {
		t.Fatalf("Remaining = %d after requeue, want 12", d.Remaining())
	}
	// The failed node itself is excluded: it gets fresh chunks instead.
	if s, b, r := d.NextBatch(ctx, 4, 2); s != 4 || len(b) != 4 || r != 0 {
		t.Fatalf("excluded node got start=%d len=%d retries=%d, want fresh 4..8", s, len(b), r)
	}
	// Another node claims the requeued batch first (split: only 3 wanted).
	s, b, r := d.NextBatch(ctx, 3, 0)
	if s != 0 || len(b) != 3 || r != 1 || b[0].Lo != 0 {
		t.Fatalf("requeued claim start=%d len=%d retries=%d first=%+v", s, len(b), r, b[0])
	}
	// The remainder of the split keeps its global index and retry count.
	s, b, r = d.NextBatch(ctx, 3, 1)
	if s != 3 || len(b) != 1 || r != 1 || b[0].Lo != 3 {
		t.Fatalf("split remainder start=%d len=%d retries=%d", s, len(b), r)
	}
	// Back to fresh chunks.
	if s, b, r := d.NextBatch(ctx, 4, 0); s != 8 || len(b) != 4 || r != 0 {
		t.Fatalf("fresh after requeue drained: start=%d len=%d retries=%d", s, len(b), r)
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d at end, want 0", d.Remaining())
	}
	// A batch requeued after the fresh list drained is still served, to any
	// slot but the one that failed it.
	d.Requeue(8, chunks[8:12], 2, 3)
	if d.Remaining() != 4 {
		t.Fatalf("Remaining = %d, want 4", d.Remaining())
	}
	if s, b, r := d.NextBatch(ctx, 8, 0); s != 8 || len(b) != 4 || r != 2 {
		t.Fatalf("late requeue claim start=%d len=%d retries=%d", s, len(b), r)
	}
	// Stop drops requeued work too.
	d.Requeue(8, chunks[8:10], 3, NoExclude)
	d.Stop()
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d after Stop", d.Remaining())
	}
	d.Requeue(0, chunks[:2], 1, NoExclude)
	if _, b, _ := d.NextBatch(ctx, 2, 0); len(b) != 0 {
		t.Fatalf("stopped dispenser accepted a requeue and served %d chunks", len(b))
	}
}

// TestDispenserPreassigned covers the static policy: a slot's first claim
// is the whole group planned for it, keyed by its global start index; no
// other slot is offered it while the owner may still claim; and a retired
// owner's group goes to the others as a first reassignment, never back.
func TestDispenserPreassigned(t *testing.T) {
	ctx := context.Background()
	chunks := unitChunks(6)
	groups := [][]balance.Range{chunks[0:2], chunks[2:4], chunks[4:6]}
	d := NewPreassigned(groups)
	if d.Remaining() != 6 {
		t.Fatalf("Remaining = %d, want 6", d.Remaining())
	}
	// n does not cut a pre-assigned group: slot 1 gets all of its own.
	s, b, r := d.NextBatch(ctx, 1, 1)
	if s != 2 || len(b) != 2 || b[0].Lo != 2 || r != 0 {
		t.Fatalf("slot 1 got start=%d len=%d retries=%d, want its group at 2", s, len(b), r)
	}
	s, b, _ = d.NextBatch(ctx, 2, 0)
	if s != 0 || len(b) != 2 {
		t.Fatalf("slot 0 got start=%d len=%d, want its group at 0", s, len(b))
	}
	d.Done() // slot 0 finished
	// Slot 0 is idle, slot 2 has not claimed yet: slot 0 must wait, not
	// take slot 2's group — the static dispenser never rebalances.
	got := make(chan int, 1)
	go func() {
		s, b, r := d.NextBatch(ctx, 2, 0)
		if len(b) != 2 || r != 1 {
			t.Errorf("slot 0 reclaimed len=%d retries=%d, want the retired group with 1 retry", len(b), r)
		}
		got <- s
	}()
	select {
	case s := <-got:
		t.Fatalf("idle slot 0 was handed the batch at %d while its owner was healthy", s)
	case <-time.After(50 * time.Millisecond):
	}
	// Slot 2's node is lost before claiming: its group is released.
	d.Retire(2)
	if s := <-got; s != 4 {
		t.Fatalf("retired group claimed at start %d, want 4", s)
	}
	// Slot 0 fails the reassigned group in turn: it is excluded from it,
	// and the retry count travels on to the next claimer.
	d.Requeue(4, chunks[4:6], 2, 0)
	d.Done() // slot 1 finished its own group
	if s, b, _ := d.NextBatch(ctx, 2, 0); len(b) != 0 {
		t.Fatalf("slot 0 was handed back the batch at %d it had failed", s)
	}
	if s, b, r := d.NextBatch(ctx, 2, 1); s != 4 || len(b) != 2 || r != 2 {
		t.Fatalf("survivor claim start=%d len=%d retries=%d, want 4/2/2", s, len(b), r)
	}
	// A retired slot is never offered its own group back.
	d = NewPreassigned(groups[:1])
	d.Retire(0)
	if _, b, _ := d.NextBatch(ctx, 2, 0); len(b) != 0 {
		t.Fatal("retired slot 0 was handed its group back")
	}
	if s, b, r := d.NextBatch(ctx, 2, 1); s != 0 || len(b) != 2 || r != 1 {
		t.Fatalf("released group claim start=%d len=%d retries=%d, want 0/2/1", s, len(b), r)
	}
}

// TestDispenserWaiters: a driver with nothing claimable waits while any
// batch is out and is released by the last completion, by a requeue (which
// it then claims), by Stop, and by ctx cancellation — never hanging.
func TestDispenserWaiters(t *testing.T) {
	chunks := unitChunks(2)
	type claim struct{ start, n, retries int }
	// wait starts slot's NextBatch on a dispenser whose only batch is out
	// and checks it is really blocked before the release under test.
	wait := func(t *testing.T, ctx context.Context, d *Dispenser, slot int) <-chan claim {
		t.Helper()
		if s, b, _ := d.NextBatch(ctx, 2, 1); s != 0 || len(b) != 2 {
			t.Fatalf("setup claim start=%d len=%d", s, len(b))
		}
		ch := make(chan claim, 1)
		go func() {
			s, b, r := d.NextBatch(ctx, 2, slot)
			ch <- claim{s, len(b), r}
		}()
		select {
		case c := <-ch:
			t.Fatalf("NextBatch returned %+v while a batch was still out", c)
		case <-time.After(20 * time.Millisecond):
		}
		return ch
	}
	recv := func(t *testing.T, ch <-chan claim) claim {
		t.Helper()
		select {
		case c := <-ch:
			return c
		case <-time.After(5 * time.Second):
			t.Fatal("waiter was never released")
			return claim{}
		}
	}
	t.Run("last completion", func(t *testing.T) {
		d := NewDispenser(chunks)
		ch := wait(t, context.Background(), d, 0)
		d.Done()
		if c := recv(t, ch); c.n != 0 {
			t.Fatalf("released waiter got %+v, want empty", c)
		}
	})
	t.Run("requeue", func(t *testing.T) {
		d := NewDispenser(chunks)
		ch := wait(t, context.Background(), d, 0)
		d.Requeue(0, chunks, 1, 1)
		if c := recv(t, ch); c != (claim{0, 2, 1}) {
			t.Fatalf("waiter claimed %+v, want the requeued batch with its retry count", c)
		}
	})
	t.Run("stop", func(t *testing.T) {
		d := NewDispenser(chunks)
		ch := wait(t, context.Background(), d, 0)
		d.Stop()
		if c := recv(t, ch); c.n != 0 {
			t.Fatalf("stopped waiter got %+v, want empty", c)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		d := NewDispenser(chunks)
		ch := wait(t, ctx, d, 0)
		cancel()
		if c := recv(t, ch); c.n != 0 {
			t.Fatalf("cancelled waiter got %+v, want empty", c)
		}
		if _, b, _ := d.NextBatch(ctx, 2, 0); len(b) != 0 {
			t.Fatal("cancelled ctx was handed a batch")
		}
	})
	// The excluded slot is the only one asking and nothing is out: it is
	// told there is no work for it instead of waiting forever.
	t.Run("excluded", func(t *testing.T) {
		d := NewDispenser(chunks)
		ch := wait(t, context.Background(), d, 1)
		d.Requeue(0, chunks, 1, 1)
		if c := recv(t, ch); c.n != 0 {
			t.Fatalf("excluded slot got %+v, want empty", c)
		}
	})
}

// TestDispenserConcurrent drives the dispenser the way the cluster master
// does — several drivers claiming, completing, and one of them failing its
// batches back — and checks every chunk is completed exactly once and no
// driver is left waiting.
func TestDispenserConcurrent(t *testing.T) {
	const n = 999
	d := NewDispenser(make([]balance.Range, n))
	var mu sync.Mutex
	done := make(map[int]int)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for fails := 0; ; {
				start, batch, retries := d.NextBatch(context.Background(), 7, node)
				if len(batch) == 0 {
					return
				}
				// Node 5 fails its first few batches, like a dying worker
				// would its last one.
				if node == 5 && fails < 3 {
					fails++
					d.Requeue(start, batch, retries+1, NoExclude)
					continue
				}
				mu.Lock()
				for i := start; i < start+len(batch); i++ {
					done[i]++
				}
				mu.Unlock()
				d.Done()
			}
		}(w)
	}
	wg.Wait()
	if len(done) != n {
		t.Fatalf("completed %d chunks, want %d", len(done), n)
	}
	for i, c := range done {
		if c != 1 {
			t.Fatalf("chunk %d completed %d times", i, c)
		}
	}
}

func TestDispenserStop(t *testing.T) {
	ctx := context.Background()
	d := NewDispenser(make([]balance.Range, 10))
	if _, b, _ := d.NextBatch(ctx, 2, 0); len(b) != 2 {
		t.Fatalf("first batch len %d", len(b))
	}
	d.Stop()
	if _, b, _ := d.NextBatch(ctx, 2, 0); len(b) != 0 {
		t.Fatalf("stopped dispenser handed out %d chunks", len(b))
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d after Stop", d.Remaining())
	}
}
