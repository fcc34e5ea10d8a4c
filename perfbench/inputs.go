package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

// Input sizes. They are fixed so that every seed gives inputs of the
// same shape and cost; the seed moves jitter, names and hotspot places.
const (
	fd4Ranks     = 200 // the paper's Fig. 5 scale
	uploadRanks  = 64  // daemon uploads: ~0.45 MB FD4 archives
	uploadSims   = 16  // distinct simulations behind the upload variants
	synthRanks   = 16
	synthIters   = 200
	synthKernels = 200
	liveRanks    = 16
	liveIters    = 4
	liveKernels  = 64
	liveSlowIter = 3
	liveVariants = 8 // live runs cycled through, each with its own slow rank
)

// mix is splitmix64: derives independent sub-seeds from the run seed.
func mix(seed uint64, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// archive is one trace archive and what its analysis must report.
type archive struct {
	name     string // run name, when the report must carry it
	data     []byte
	path     string // set when the archive lives on disk
	events   int64
	dominant string
	hotRank  int
	hotIndex int
}

// liveRun is one live session's traffic: the create request's header and
// one frame batch per iteration (one frame per rank), in send order.
type liveRun struct {
	header   *trace.Header
	slowRank int
	batches  [][]byte
	events   int
}

func fd4Config(ranks int, seed uint64) workloads.FD4Config {
	cfg := workloads.DefaultFD4()
	cfg.Ranks = ranks
	cfg.Seed = int64(seed >> 1)
	return cfg
}

// fd4Archive simulates the paper-scale COSMO-SPECS+FD4 run.
func fd4Archive(seed uint64) (*archive, error) {
	cfg := fd4Config(fd4Ranks, seed)
	tr, err := workloads.FD4(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		return nil, err
	}
	return &archive{
		data:     buf.Bytes(),
		events:   int64(tr.NumEvents()),
		dominant: "iteration",
		hotRank:  cfg.InterruptRank,
		hotIndex: cfg.InterruptIteration,
	}, nil
}

// uploadSet makes the daemon's distinct 64-rank FD4 uploads. Each is one
// of uploadSims simulations encoded under its own run name, so the
// daemon's content-addressed cache has never seen it and each costs a
// full analysis. Only the simulations' encodings are kept: a variant is
// a copy with the fixed-width name rewritten, and set-up checks that the
// copy is byte-identical to encoding the trace under that name.
type uploadSet struct {
	bases   []*archive
	nameOff []int
}

const uploadNameFormat = "fd4-upload-%012d"

func uploadName(j int) string { return fmt.Sprintf(uploadNameFormat, j) }

func newUploadSet(seed uint64) (*uploadSet, error) {
	u := &uploadSet{}
	for k := 0; k < uploadSims; k++ {
		cfg := fd4Config(uploadRanks, mix(seed, 100+uint64(k)))
		tr, err := workloads.FD4(cfg)
		if err != nil {
			return nil, err
		}
		encode := func(name string) ([]byte, error) {
			tr.Name = name
			var buf bytes.Buffer
			err := trace.Write(&buf, tr)
			return buf.Bytes(), err
		}
		base, err := encode(uploadName(k))
		if err != nil {
			return nil, err
		}
		off := bytes.Index(base, []byte(uploadName(k)))
		if off < 0 || bytes.Count(base, []byte(uploadName(k))) != 1 {
			return nil, fmt.Errorf("upload name not found once in the archive")
		}
		u.bases = append(u.bases, &archive{
			data:     base,
			events:   int64(tr.NumEvents()),
			dominant: "iteration",
			hotRank:  cfg.InterruptRank,
			hotIndex: cfg.InterruptIteration,
		})
		u.nameOff = append(u.nameOff, off)
		probe := k + uploadSims
		want, err := encode(uploadName(probe))
		if err != nil {
			return nil, err
		}
		if got, err := io.ReadAll(u.body(probe)); err != nil || !bytes.Equal(want, got) {
			return nil, fmt.Errorf("renamed upload differs from its encoding")
		}
	}
	return u, nil
}

// get returns upload j in memory.
func (u *uploadSet) get(j int) *archive {
	a := u.meta(j)
	a.data, _ = io.ReadAll(u.body(j))
	return a
}

// meta returns what upload j's analysis must report, without its bytes.
func (u *uploadSet) meta(j int) *archive {
	a := *u.bases[j%uploadSims]
	a.data = nil
	a.name = uploadName(j)
	return &a
}

// body streams upload j without copying the base encoding.
func (u *uploadSet) body(j int) io.Reader {
	k := j % uploadSims
	base, off := u.bases[k].data, u.nameOff[k]
	name := uploadName(j)
	return io.MultiReader(bytes.NewReader(base[:off]), strings.NewReader(name), bytes.NewReader(base[off+len(name):]))
}

// size is upload j's byte length.
func (u *uploadSet) size(j int) int64 { return int64(len(u.bases[j%uploadSims].data)) }

func synthConfig(seed uint64) workloads.SyntheticConfig {
	cfg := workloads.DefaultSynthetic()
	cfg.Ranks = synthRanks
	cfg.Iterations = synthIters
	cfg.KernelCalls = synthKernels
	cfg.Seed = mix(seed, 2)
	cfg.SlowRank = int(mix(seed, 3) % synthRanks)
	cfg.SlowIteration = 50 + int(mix(seed, 4)%100)
	return cfg
}

// synthArchive writes the synthetic fine-grained archive to dir.
func synthArchive(dir string, seed uint64) (*archive, error) {
	cfg := synthConfig(seed)
	path := filepath.Join(dir, "synth.pvt")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := cfg.WriteArchive(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return &archive{
		path:     path,
		events:   int64(cfg.NumEvents()),
		dominant: "iteration",
		hotRank:  cfg.SlowRank,
		hotIndex: cfg.SlowIteration,
	}, nil
}

// liveRuns builds the live sessions' traffic: small 16-rank synthetic
// runs, each with one straggler iteration on its own slow rank.
func liveRuns(seed uint64) ([]*liveRun, error) {
	var out []*liveRun
	for v := 0; v < liveVariants; v++ {
		cfg := workloads.DefaultSynthetic()
		cfg.Ranks = liveRanks
		cfg.Iterations = liveIters
		cfg.KernelCalls = liveKernels
		cfg.Seed = mix(seed, 20+uint64(v))
		cfg.SlowRank = int(mix(seed, 30+uint64(v)) % liveRanks)
		cfg.SlowIteration = liveSlowIter
		lr := &liveRun{header: cfg.Header(), slowRank: cfg.SlowRank, batches: make([][]byte, liveIters)}
		for rank := 0; rank < liveRanks; rank++ {
			// Cut the rank's stream after each iteration's leave; the
			// run's closing leave rides with the last iteration.
			var evs []trace.Event
			iter := 0
			err := cfg.StreamRank(rank, func(ev trace.Event) error {
				evs = append(evs, ev)
				if ev.Kind == trace.KindLeave && ev.Region == workloads.SynthIter && iter < liveIters-1 {
					b, err := trace.AppendFrame(lr.batches[iter], trace.Rank(rank), evs)
					lr.batches[iter] = b
					lr.events += len(evs)
					evs = evs[:0]
					iter++
					return err
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			b, err := trace.AppendFrame(lr.batches[iter], trace.Rank(rank), evs)
			if err != nil {
				return nil, err
			}
			lr.batches[iter] = b
			lr.events += len(evs)
		}
		out = append(out, lr)
	}
	return out, nil
}
