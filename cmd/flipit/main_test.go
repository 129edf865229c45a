package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// flipit runs the command in-process and returns its exit status,
// stdout and stderr.
func flipit(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// modes are the local campaign modes whose checkpoints must resume,
// each with its checkpoint subdirectory under -journal.
var modes = []struct {
	name string
	args []string
	sub  string
}{
	{"plain", []string{"-workload", "FFT", "-n", "80"}, "campaign.jsonl"},
	{"shards", []string{"-workload", "FFT", "-n", "80", "-shards", "3"}, "campaign.shards"},
	{"sections", []string{"-workload", "FFT", "-sections", "-max-per-section", "8"}, "campaign.sections"},
}

var (
	executedRE = regexp.MustCompile(`sectioned: (\d+) trials executed, (\d+) restored`)
	restoredRE = regexp.MustCompile(`restored +\d+`)
	completeRE = regexp.MustCompile(`: (\d+)/(\d+) injections completed`)
)

// accounting returns a sectioned report's executed and restored trial
// counts.
func accounting(t *testing.T, stdout string) (executed, restored int) {
	t.Helper()
	m := executedRE.FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("no sectioned accounting line in:\n%s", stdout)
	}
	executed, _ = strconv.Atoi(m[1])
	restored, _ = strconv.Atoi(m[2])
	return executed, restored
}

// sameReport compares two reports of the same campaign. A sectioned
// report also says how many trials this invocation executed and how
// many it restored from journals, which depends on the run's history,
// so those counts are masked; everything else must match byte for
// byte.
func sameReport(t *testing.T, got, want string) {
	t.Helper()
	mask := func(s string) string {
		s = executedRE.ReplaceAllString(s, "sectioned: E trials executed, R restored")
		return restoredRE.ReplaceAllString(s, "restored R")
	}
	if mask(got) != mask(want) {
		t.Errorf("stdout differs from the uninterrupted run\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestInterruptedRunResumesBitIdentically(t *testing.T) {
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			start := time.Now()
			code, want, stderr := flipit(t, mode.args...)
			if code != 0 {
				t.Fatalf("uninterrupted run: exit %d\n%s", code, stderr)
			}
			// A tenth of the uninterrupted wall time stops the
			// campaign early on any machine speed; the golden run is
			// cached by then, so the budget goes to trials.
			deadline := max(time.Since(start)/10, time.Millisecond)

			dir := t.TempDir()
			args := append([]string{"-journal", dir}, mode.args...)
			code, partial, stderr := flipit(t, append(args, "-deadline", deadline.String())...)
			if code != 130 {
				t.Fatalf("run with -deadline %v: exit %d, want 130 (interrupted)\n%s", deadline, code, stderr)
			}
			if !strings.Contains(stderr, "rerun with -journal "+dir+" -resume") {
				t.Errorf("interrupted run does not point at its checkpoint:\n%s", stderr)
			}
			completed := 0
			if m := completeRE.FindStringSubmatch(partial); m != nil {
				completed, _ = strconv.Atoi(m[1])
				if total, _ := strconv.Atoi(m[2]); completed >= total {
					t.Fatalf("interrupted run completed every trial:\n%s", partial)
				}
			}

			code, got, stderr := flipit(t, append(args, "-resume")...)
			if code != 0 {
				t.Fatalf("resumed run: exit %d\n%s", code, stderr)
			}
			sameReport(t, got, want)
			if mode.name == "sections" {
				if _, restored := accounting(t, got); restored != completed {
					t.Errorf("resumed run restored %d trials, the interrupted run completed %d", restored, completed)
				}
			}
		})
	}
}

// TestOldJournalLayoutsRefused writes each mode's checkpoint, moves it
// into the layout older flipit versions used (a journal file, or shard
// and section journals at the top of -journal), and checks that flipit
// refuses it with a migration command which, once run, gives back a
// checkpoint that restores every trial.
func TestOldJournalLayoutsRefused(t *testing.T) {
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			ckpt := filepath.Join(dir, "ckpt")
			code, want, stderr := flipit(t, append([]string{"-journal", ckpt}, mode.args...)...)
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr)
			}
			old := filepath.Join(dir, "old")
			if mode.sub == "campaign.jsonl" {
				old += ".jsonl"
			}
			if err := os.Rename(filepath.Join(ckpt, mode.sub), old); err != nil {
				t.Fatal(err)
			}
			journals := snapshot(t, old)

			code, _, stderr = flipit(t, append([]string{"-journal", old, "-resume"}, mode.args...)...)
			if code != 1 || !strings.Contains(stderr, "migrate") {
				t.Fatalf("old layout at %s: exit %d, want a refusal with a migration hint\n%s", old, code, stderr)
			}
			var hint string
			for _, line := range strings.Split(stderr, "\n") {
				if strings.HasPrefix(line, "\t") {
					hint = strings.TrimSpace(line)
				}
			}
			if out, err := exec.Command("sh", "-c", hint).CombinedOutput(); err != nil {
				t.Fatalf("migration %q: %v\n%s", hint, err, out)
			}
			migrated := old
			if m := regexp.MustCompile(`rerun with -journal (\S+)`).FindStringSubmatch(stderr); m != nil {
				migrated = m[1]
			}
			if got := snapshot(t, filepath.Join(migrated, mode.sub)); !bytes.Equal(got, journals) {
				t.Fatalf("migration changed the journals' bytes")
			}

			code, got, stderr := flipit(t, append([]string{"-journal", migrated, "-resume"}, mode.args...)...)
			if code != 0 {
				t.Fatalf("migrated checkpoint: exit %d\n%s", code, stderr)
			}
			sameReport(t, got, want)
			// Every trial was restored: nothing ran, so no journal grew.
			if after := snapshot(t, filepath.Join(migrated, mode.sub)); !bytes.Equal(after, journals) {
				t.Errorf("resuming the migrated checkpoint re-ran trials")
			}
			if mode.name == "sections" {
				if executed, _ := accounting(t, got); executed != 0 {
					t.Errorf("resuming the migrated checkpoint executed %d trials, want 0", executed)
				}
			}
		})
	}
}

// snapshot returns a journal file's bytes, or the names and bytes of
// every file in a journal directory, in name order.
func snapshot(t *testing.T, path string) []byte {
	t.Helper()
	var paths []string
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			paths = append(paths, filepath.Join(path, e.Name()))
		}
	} else {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var buf bytes.Buffer
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString(filepath.Base(p) + "\n")
		buf.Write(data)
	}
	return buf.Bytes()
}
