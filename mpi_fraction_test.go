package perfvar

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"perfvar/internal/core/imbalance"
	"perfvar/internal/workloads"
)

// TestMPIFractionMatchesTimeline cross-checks the engine's fused MPI-share
// binning against the materialized timeline helper: both must produce
// bitwise-identical fractions, on the in-memory and the streamed path, at
// every bin count.
func TestMPIFractionMatchesTimeline(t *testing.T) {
	traces := streamEquivTraces(t)
	fd4 := workloads.DefaultFD4()
	fd4.Ranks = 24
	tr, err := workloads.FD4(fd4)
	if err != nil {
		t.Fatal(err)
	}
	traces["fd4"] = tr

	for name, tr := range traces {
		path := filepath.Join(t.TempDir(), name+".pvt")
		if err := SaveTrace(path, tr); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, bins := range []int{1, 7, 20} {
			want := imbalance.MPIFractionTimeline(tr, bins)
			for label, src := range map[string]Source{"trace": TraceSource(tr), "archive": ArchiveSource(raw)} {
				res, err := AnalyzeSource(context.Background(), src, Options{MPIFractionBins: bins})
				if err != nil {
					t.Fatalf("%s/%s bins=%d: %v", name, label, bins, err)
				}
				if len(res.MPIFraction) != len(want) {
					t.Fatalf("%s/%s bins=%d: %d fractions, want %d", name, label, bins, len(res.MPIFraction), len(want))
				}
				for b := range want {
					if math.Float64bits(res.MPIFraction[b]) != math.Float64bits(want[b]) {
						t.Errorf("%s/%s bins=%d bin %d: engine %v, timeline %v", name, label, bins, b, res.MPIFraction[b], want[b])
					}
				}
			}
		}
	}
}
