package cli

import (
	"bytes"
	"strings"
	"testing"
)

// TestPrinterJumpingTallies feeds the printer tallies that skip past
// every multiple of a tenth, as a polled coordinator's do: each tenth
// crossed must still print, once, and so must completion.
func TestPrinterJumpingTallies(t *testing.T) {
	var buf bytes.Buffer
	p := Printer("ipas", &buf)
	for _, done := range []int{37, 61, 99, 181, 263, 264, 689, 999, 1000, 1000} {
		p("collect", done, 1000, 0, 0)
	}
	p("train IPAS", 7, 8, 0, 0)
	p("collect", 3, 50, 1, 2) // the stage runs again
	p("collect", 50, 50, 1, 2)

	want := []string{
		"ipas: collect: 37/1000 trials",
		"ipas: collect: 181/1000 trials",
		"ipas: collect: 263/1000 trials",
		"ipas: collect: 689/1000 trials",
		"ipas: collect: 999/1000 trials",
		"ipas: collect: 1000/1000 trials",
		"ipas: train IPAS: 7/8 grid points",
		"ipas: collect: 3/50 trials, 1 failed (excluded from proportions), 2 deadlocked",
		"ipas: collect: 50/50 trials, 1 failed (excluded from proportions), 2 deadlocked",
	}
	if got, want := buf.String(), strings.Join(want, "\n")+"\n"; got != want {
		t.Errorf("printed:\n%swant:\n%s", got, want)
	}
}
