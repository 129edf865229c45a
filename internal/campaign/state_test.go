package campaign

import "testing"

// newShardState returns a campaign state holding only a lease record
// per shard, every shard queued with zero attempts.
func newShardState(shards int) *state {
	return &state{k: shards, shards: make([]shardSlot, shards)}
}

// The shard lifecycle is the lease registry's quarantine semantics.
func TestStateMachineLifecycle(t *testing.T) {
	st := newShardState(3)
	if st.terminal != 0 {
		t.Fatalf("fresh state: terminal=%d", st.terminal)
	}
	for sh := 0; sh < 3; sh++ {
		if got := st.shards[sh].phase; got != phaseQueued {
			t.Fatalf("shard %d starts in %v, want queued", sh, got)
		}
	}

	// Happy path: acquire → complete.
	st.advance(0, phaseRunning)
	if a := st.shards[0].attempts; a != 1 {
		t.Fatalf("first acquire attempt = %d, want 1", a)
	}
	st.advance(0, phaseDone)
	if st.shards[0].phase != phaseDone || st.terminal != 1 {
		t.Fatalf("after complete: phase=%v terminal=%d", st.shards[0].phase, st.terminal)
	}

	// Quarantine loop: acquire → quarantine → requeue → acquire counts
	// attempts monotonically.
	st.advance(1, phaseRunning)
	st.advance(1, phaseBackoff)
	if st.shards[1].phase != phaseBackoff {
		t.Fatalf("after quarantine: %v", st.shards[1].phase)
	}
	st.advance(1, phaseQueued)
	st.advance(1, phaseRunning)
	if a := st.shards[1].attempts; a != 2 {
		t.Fatalf("second acquire attempt = %d, want 2", a)
	}
	st.advance(1, phaseFailed)
	if st.shards[1].phase != phaseFailed || st.shards[1].attempts != 2 {
		t.Fatalf("after fail: phase=%v attempts=%d", st.shards[1].phase, st.shards[1].attempts)
	}

	// Settle: a shard restored from its journals is done without an
	// attempt.
	st.advance(2, phaseDone)
	if st.shards[2].attempts != 0 {
		t.Fatalf("settled shard charged %d attempts", st.shards[2].attempts)
	}
	if st.terminal != st.k {
		t.Fatalf("terminal = %d after every shard finished, want %d", st.terminal, st.k)
	}
	for sh, want := range []string{"done", "failed", "done"} {
		if got := st.shards[sh].phase.String(); got != want {
			t.Fatalf("shard %d reports %q, want %q", sh, got, want)
		}
	}
}

func TestStateMachineRejectsInvalidTransitions(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(st *state)
	}{
		{"quarantine while queued", func(st *state) { st.advance(0, phaseBackoff) }},
		{"requeue while queued", func(st *state) { st.advance(0, phaseQueued) }},
		{"fail while queued", func(st *state) { st.advance(0, phaseFailed) }},
		{"acquire while running", func(st *state) { st.advance(0, phaseRunning); st.advance(0, phaseRunning) }},
		{"acquire in backoff", func(st *state) {
			st.advance(0, phaseRunning)
			st.advance(0, phaseBackoff)
			st.advance(0, phaseRunning)
		}},
		{"fail from backoff", func(st *state) {
			st.advance(0, phaseRunning)
			st.advance(0, phaseBackoff)
			st.advance(0, phaseFailed)
		}},
		{"acquire after done", func(st *state) { st.advance(0, phaseRunning); st.advance(0, phaseDone); st.advance(0, phaseRunning) }},
		{"fail after done", func(st *state) { st.advance(0, phaseRunning); st.advance(0, phaseDone); st.advance(0, phaseFailed) }},
		{"settle after done", func(st *state) { st.advance(0, phaseDone); st.advance(0, phaseDone) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid transition did not panic")
				}
			}()
			tc.fn(newShardState(1))
		})
	}
}
