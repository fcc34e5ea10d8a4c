package trace

import (
	"bytes"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz targets: the decoders must never panic on arbitrary input, and
// anything they accept must re-encode successfully. Run with
// `go test -run '^$' -fuzz=FuzzReadBinary ./internal/trace` for active
// fuzzing; plain `go test` replays the seed corpus.

func binarySeed() []byte {
	var buf bytes.Buffer
	if err := Write(&buf, validTwoRankTrace()); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// brokenSeed encodes a sorted but structurally invalid trace: unclosed
// and mismatched regions, an undefined peer, and a negative payload, so
// fuzzing starts from inputs that exercise the Check recovery paths.
func brokenSeed() []byte {
	tr := New("broken", 2)
	fn := tr.AddRegion("f", ParadigmUser, RoleFunction)
	g := tr.AddRegion("g", ParadigmUser, RoleFunction)
	m := tr.AddMetric("c", "n", MetricAccumulated)
	tr.Append(0, Enter(0, fn))
	tr.Append(0, Enter(10, g))
	tr.Append(0, Sample(15, m, 100))
	tr.Append(0, Sample(18, m, 50)) // decreasing accumulated metric
	tr.Append(0, Leave(20, fn))     // g still open
	tr.Append(0, Send(30, 7, 1, -4))
	tr.Append(1, Enter(0, fn)) // never left
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzReadBinary(f *testing.F) {
	seed := binarySeed()
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte("PVTR"))
	f.Add(seed[:len(seed)/2])
	mutated := append([]byte(nil), seed...)
	for i := 8; i < len(mutated); i += 13 {
		mutated[i] ^= 0xff
	}
	f.Add(mutated)
	f.Add(brokenSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		// The per-rank streams the engine decodes through must agree:
		// same acceptance, same events.
		streamed, serr := drainStreams(data)
		if (err == nil) != (serr == nil) {
			t.Fatalf("Read err = %v, per-rank streams err = %v", err, serr)
		}
		if err != nil {
			return
		}
		for rank := range tr.Procs {
			if !sameEvents(tr.Procs[rank].Events, streamed[rank]) {
				t.Fatalf("rank %d: per-rank stream differs from Read", rank)
			}
		}
		// Accepted input must be re-encodable unless it is unsorted (the
		// writer rejects unsorted streams, which the reader cannot
		// produce thanks to delta decoding — so re-encoding must work).
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		// Validate may reject semantics (unbalanced regions), but must
		// not panic — and it must agree with the collect-all checker it
		// wraps: no error means no issues, and vice versa.
		issues := tr.Check()
		if err := tr.Validate(); (err == nil) != (len(issues) == 0) {
			t.Fatalf("Validate (%v) disagrees with Check (%d issues)", err, len(issues))
		}
	})
}

func textSeed() []byte {
	var buf bytes.Buffer
	if err := WriteText(&buf, validTwoRankTrace()); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzReadText(f *testing.F) {
	seed := textSeed()
	f.Add(string(seed))
	f.Add("")
	f.Add("pvtt 1\nend\n")
	f.Add("pvtt 1\nname \"x\nend\n")
	f.Add("pvtt 1\nregion 0 \"f\" user function\nproc 0 \"P\"\ne 0 1 enter 0\nend\n")
	f.Add("pvtt 1\nregion 0 \"f\" user function\nregion 1 \"g\" user function\nproc 0 \"P\"\ne 0 1 enter 0\ne 0 2 enter 1\ne 0 3 leave 0\nend\n")
	f.Add("pvtt 1\nmetric 0 \"c\" \"n\" accumulated\nproc 0 \"P\"\ne 0 1 metric 0 9\ne 0 2 metric 0 5\nend\n")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadText(bytes.NewReader([]byte(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err != nil {
			t.Fatalf("re-encode of accepted text trace failed: %v", err)
		}
		issues := tr.Check()
		if err := tr.Validate(); (err == nil) != (len(issues) == 0) {
			t.Fatalf("Validate (%v) disagrees with Check (%d issues)", err, len(issues))
		}
	})
}

func FuzzStream(f *testing.F) {
	f.Add(binarySeed())
	f.Add([]byte("PVTR\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		_, _ = Stream(bytes.NewReader(data), func(Rank, Event) error {
			n++
			if n > 1<<20 {
				t.Fatal("runaway event stream")
			}
			return nil
		})
	})
}

// drainStreams decodes every rank of the PVTR archive in data through
// OpenRankStreamsBytes and StreamRank.
func drainStreams(data []byte) ([][]Event, error) {
	rs, err := OpenRankStreamsBytes(data)
	if err != nil {
		return nil, err
	}
	out := make([][]Event, rs.NumRanks())
	for rank := range out {
		if err := rs.StreamRank(rank, func(ev Event) error {
			out[rank] = append(out[rank], ev)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sameEvents is reflect.DeepEqual on event slices, except that metric
// values compare bit for bit: a decoded NaN sample is never DeepEqual to
// itself, yet it round-trips exactly.
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.Value) != math.Float64bits(y.Value) {
			return false
		}
		x.Value, y.Value = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// sameTrace is reflect.DeepEqual on traces with events compared by
// sameEvents.
func sameTrace(a, b *Trace) bool {
	if !tracesEqual(a, b) {
		return false
	}
	for i := range a.Procs {
		if (a.Procs[i].Events == nil) != (b.Procs[i].Events == nil) {
			return false
		}
	}
	return true
}

// dirSeed writes validTwoRankTrace as a directory archive and returns
// its anchor and rank-0 file bytes.
func dirSeed() (anchor, rank0 []byte) {
	dir, err := os.MkdirTemp("", "fuzzdir")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	if err := WriteDir(dir, validTwoRankTrace()); err != nil {
		panic(err)
	}
	if anchor, err = os.ReadFile(filepath.Join(dir, anchorName)); err != nil {
		panic(err)
	}
	if rank0, err = os.ReadFile(filepath.Join(dir, rankFileName(0))); err != nil {
		panic(err)
	}
	return anchor, rank0
}

// FuzzReadDir fuzzes opening a directory archive: the anchor and the
// rank-0 event file (absent when empty; every other rank's file is
// absent). ReadDir and the per-rank DirStreams must never panic, must
// fail only with format or file-system errors, and must agree; an
// accepted trace must round-trip through WriteDir and ReadDir.
func FuzzReadDir(f *testing.F) {
	anchor, rank0 := dirSeed()
	f.Add(anchor, rank0)
	f.Add(anchor, []byte{})
	f.Add(anchor, rank0[:len(rank0)/2])
	f.Add(anchor[:len(anchor)/2], rank0)
	f.Add([]byte("PVTA\x01\x00\x00\x00\x00\x00\x00\x01\x00"), []byte("PVTE\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("PVTR\x01\x00\x00\x00\x00\x00\x00\x00"), []byte{})
	f.Fuzz(func(t *testing.T, anchor, rank0 []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, anchorName), anchor, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(rank0) > 0 {
			if err := os.WriteFile(filepath.Join(dir, rankFileName(0)), rank0, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		typed := func(err error) bool {
			var pe *fs.PathError
			return errors.Is(err, ErrFormat) || errors.As(err, &pe)
		}
		tr, err := ReadDir(dir)
		if err != nil && !typed(err) {
			t.Fatalf("ReadDir: untyped error %v", err)
		}
		var serr error
		if ds, oerr := OpenDirRankStreams(dir); oerr != nil {
			serr = oerr
		} else {
			for rank := 0; rank < ds.NumRanks() && serr == nil; rank++ {
				serr = ds.StreamRank(rank, func(Event) error { return nil })
			}
		}
		if serr != nil && !typed(serr) {
			t.Fatalf("DirStreams: untyped error %v", serr)
		}
		if (err == nil) != (serr == nil) {
			t.Fatalf("ReadDir err = %v, DirStreams err = %v", err, serr)
		}
		if err != nil {
			return
		}
		out := t.TempDir()
		if err := WriteDir(out, tr); err != nil {
			t.Fatalf("WriteDir of accepted trace: %v", err)
		}
		back, err := ReadDir(out)
		if err != nil {
			t.Fatalf("ReadDir of rewritten trace: %v", err)
		}
		if !sameTrace(tr, back) {
			t.Fatal("directory round trip changed the trace")
		}
	})
}
