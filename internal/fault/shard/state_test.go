package shard

import "testing"

// The state machine is the campaign coordinator's shard lifecycle; its
// transition rules are the lease registry's quarantine semantics.
func TestStateMachineLifecycle(t *testing.T) {
	m := NewStateMachine(3)
	if m.Len() != 3 || m.Terminal() != 0 || m.AllTerminal() {
		t.Fatalf("fresh machine: len=%d terminal=%d", m.Len(), m.Terminal())
	}
	for s := 0; s < 3; s++ {
		if got := m.State(s); got != StateQueued {
			t.Fatalf("shard %d starts in %v, want queued", s, got)
		}
	}

	// Happy path: acquire → complete.
	if a := m.Acquire(0); a != 1 {
		t.Fatalf("first acquire attempt = %d, want 1", a)
	}
	m.Complete(0)
	if m.State(0) != StateDone || m.Terminal() != 1 {
		t.Fatalf("after complete: state=%v terminal=%d", m.State(0), m.Terminal())
	}

	// Quarantine loop: acquire → quarantine → requeue → acquire counts
	// attempts monotonically.
	m.Acquire(1)
	m.Quarantine(1)
	if m.State(1) != StateBackoff {
		t.Fatalf("after quarantine: %v", m.State(1))
	}
	m.Requeue(1)
	if a := m.Acquire(1); a != 2 {
		t.Fatalf("second acquire attempt = %d, want 2", a)
	}
	m.Fail(1)
	if m.State(1) != StateFailed || m.Attempts(1) != 2 {
		t.Fatalf("after fail: state=%v attempts=%d", m.State(1), m.Attempts(1))
	}

	// Fail from backoff (the lease registry's expiry-time decision).
	m.Acquire(2)
	m.Quarantine(2)
	m.Fail(2)
	if !m.AllTerminal() {
		t.Fatal("machine not terminal after every shard finished")
	}
	q, r, b, d, f := m.Counts()
	if q != 0 || r != 0 || b != 0 || d != 1 || f != 2 {
		t.Fatalf("counts = %d/%d/%d/%d/%d, want 0/0/0/1/2", q, r, b, d, f)
	}
}

func TestStateMachineRejectsInvalidTransitions(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(m *StateMachine)
	}{
		{"complete while queued", func(m *StateMachine) { m.Complete(0) }},
		{"quarantine while queued", func(m *StateMachine) { m.Quarantine(0) }},
		{"requeue while queued", func(m *StateMachine) { m.Requeue(0) }},
		{"fail while queued", func(m *StateMachine) { m.Fail(0) }},
		{"acquire while running", func(m *StateMachine) { m.Acquire(0); m.Acquire(0) }},
		{"acquire in backoff", func(m *StateMachine) { m.Acquire(0); m.Quarantine(0); m.Acquire(0) }},
		{"acquire after done", func(m *StateMachine) { m.Acquire(0); m.Complete(0); m.Acquire(0) }},
		{"fail after done", func(m *StateMachine) { m.Acquire(0); m.Complete(0); m.Fail(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid transition did not panic")
				}
			}()
			tc.fn(NewStateMachine(1))
		})
	}
}
