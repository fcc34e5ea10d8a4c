package segment

import (
	"fmt"

	"perfvar/internal/trace"
)

// Streaming segmentation setup: the per-region sync verdicts every
// call-stack kernel (CandidateSet) consumes, computed once per trace
// instead of once per event.

// SyncMask precomputes the classifier verdict for every region, turning
// the per-event classification into a slice index. A nil classifier means
// DefaultSync, as in Compute.
func SyncMask(regions []trace.Region, cls SyncClassifier) []bool {
	if cls == nil {
		cls = DefaultSync
	}
	mask := make([]bool, len(regions))
	for i, r := range regions {
		mask[i] = cls.IsSync(r)
	}
	return mask
}

// Prepare validates a streaming segmentation up front — the region must
// be defined and must not itself classify as synchronization
// (ErrSyncRegion, with Compute's wording) — and returns the per-region
// sync mask for the kernel.
func Prepare(regions []trace.Region, region trace.RegionID, cls SyncClassifier) ([]bool, error) {
	if region < 0 || int(region) >= len(regions) {
		return nil, fmt.Errorf("segment: region %d not defined", region)
	}
	if cls == nil {
		cls = DefaultSync
	}
	if cls.IsSync(regions[region]) {
		return nil, fmt.Errorf("%w (region %q; choose a user-code region or adjust the classifier)",
			ErrSyncRegion, regions[region].Name)
	}
	return SyncMask(regions, cls), nil
}
