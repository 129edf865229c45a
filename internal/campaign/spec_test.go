package campaign

import (
	"path/filepath"
	"testing"
)

// FuzzSpecID: a spec the coordinator admits names a journal directory
// directly under its root, whatever the submitted name. Seeds live in
// testdata/fuzz/FuzzSpecID.
func FuzzSpecID(f *testing.F) {
	root := filepath.Join(f.TempDir(), "campaigns")
	f.Fuzz(func(t *testing.T, name string) {
		spec := Spec{Name: name, Source: testSource, Verifier: "exact", Trials: 2}
		spec.Normalize()
		if spec.Validate() != nil {
			return
		}
		if dir := filepath.Join(root, spec.ID()); filepath.Dir(dir) != root {
			t.Fatalf("name %q: campaign ID %q puts the journal directory at %s, outside %s", name, spec.ID(), dir, root)
		}
	})
}
