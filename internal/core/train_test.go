package core

import (
	"context"
	"encoding/json"
	"testing"

	"ipas/internal/svm"
)

// TestTrainContextDeterministicAcrossWorkers runs Step 3 end to end
// (grid search + final top-N fits) at several worker counts and asserts
// the resulting classifiers are bit-identical: serialized models use
// IEEE-754 bit patterns, so byte equality is float-bit equality.
func TestTrainContextDeterministicAcrossWorkers(t *testing.T) {
	app := loadApp(t, "FFT")
	data, err := Collect(app, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	grid := svm.LogGrid(1, 1e3, 4, 1e-3, 1, 3)
	var ref [][]byte
	for _, w := range []int{1, 4} {
		cc := &CampaignControls{TrainWorkers: w}
		cls, err := TrainContext(context.Background(), data, data.Labels(PolicyIPAS), grid, 3, cc, "train")
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		var blobs [][]byte
		for _, c := range cls {
			b, err := json.Marshal(c.Model)
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, b)
		}
		if ref == nil {
			ref = blobs
			continue
		}
		if len(blobs) != len(ref) {
			t.Fatalf("workers=%d: %d classifiers, want %d", w, len(blobs), len(ref))
		}
		for i := range blobs {
			if string(blobs[i]) != string(ref[i]) {
				t.Fatalf("workers=%d: classifier %d differs from workers=1", w, i)
			}
		}
	}
}

// TestTrainContextCancelled asserts a cancelled training step aborts
// with the context's error instead of returning classifiers.
func TestTrainContextCancelled(t *testing.T) {
	app := loadApp(t, "FFT")
	data, err := Collect(app, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TrainContext(ctx, data, data.Labels(PolicyIPAS), svm.QuickGrid(), 3, nil, "train"); err == nil {
		t.Fatal("cancelled training returned classifiers")
	}
}

// TestTrainCountsCappedGridPoints checks the capped-grid-point count
// Step 3 reports: the same for any worker count, and equal to the
// number of grid points whose cross validation has a capped fold.
func TestTrainCountsCappedGridPoints(t *testing.T) {
	app := loadApp(t, "FFT")
	data, err := Collect(app, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	grid := svm.LogGrid(1, 1e4, 3, 1e-3, 1, 3)
	grid.MaxIter = 400
	labels := data.Labels(PolicyIPAS)
	want := -1
	for _, w := range []int{1, 4} {
		_, capped, err := trainContext(context.Background(), data, labels, grid, 1, &CampaignControls{TrainWorkers: w}, "train")
		if err != nil {
			t.Fatal(err)
		}
		if want >= 0 && capped != want {
			t.Fatalf("workers=%d: %d capped grid points, workers=1 counted %d", w, capped, want)
		}
		want = capped
	}
	scaler := svm.FitScaler(data.X)
	grid.WeightByClassFreq = true
	cfgs, err := svm.GridSearch(&svm.Problem{X: scaler.ApplyAll(data.X), Y: labels}, grid)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, c := range cfgs {
		if c.CV.CappedFolds > 0 {
			n++
		}
	}
	if n != want || n == 0 || n == len(cfgs) {
		t.Fatalf("trainContext counted %d capped grid points, grid search has %d of %d", want, n, len(cfgs))
	}
}

// BenchmarkTrainFFT is Step 3 as `ipas` runs it with no flags: both
// trainings (IPAS and Baseline labels) on FFT input 1 at seed 7,
// QuickOptions' 350 samples and 48-point grid, two training workers.
// The collection campaign runs before the timer. It reports the grid
// points at which some fold stopped at the SMO iteration cap; profile
// it with -cpuprofile and `go tool pprof -top -focus internal/svm -relative_percentages`.
func BenchmarkTrainFFT(b *testing.B) {
	opts := QuickOptions()
	data, err := Collect(loadApp(b, "FFT"), opts.Samples, 7)
	if err != nil {
		b.Fatal(err)
	}
	cc := &CampaignControls{TrainWorkers: 2}
	b.ResetTimer()
	capped := 0
	for i := 0; i < b.N; i++ {
		capped = 0
		for _, pol := range []Policy{PolicyIPAS, PolicyBaseline} {
			_, k, err := trainContext(context.Background(), data, data.Labels(pol), opts.Grid, opts.TopN, cc, "train")
			if err != nil {
				b.Fatal(err)
			}
			capped += k
		}
	}
	b.ReportMetric(float64(capped), "capped-points")
}
