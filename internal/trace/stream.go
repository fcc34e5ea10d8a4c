package trace

import (
	"bufio"
	"errors"
	"io"
	"os"
)

// ErrStopStream can be returned by a StreamFunc to end the stream early
// without error: Stream returns the header and a nil error.
var ErrStopStream = errors.New("trace: stop streaming")

// Header is the definition part of an archive, delivered to streaming
// consumers before any event.
type Header struct {
	Name    string
	Regions []Region
	Metrics []Metric
	Procs   []Process
}

// StreamFunc receives one event at a time during streaming reads. Events
// arrive rank-major (all of rank 0, then rank 1, ...) in per-rank time
// order. Returning a non-nil error aborts the stream.
type StreamFunc func(rank Rank, ev Event) error

// Stream decodes a binary PVTR archive from r without materializing the
// event slices: definitions are parsed into a Header, then fn is invoked
// per event. Memory use is O(definitions), independent of trace length —
// the reader for traces that do not fit in RAM.
func Stream(r io.Reader, fn StreamFunc) (*Header, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	h, err := readDefs(br, formatMagic)
	if err != nil {
		return nil, err
	}
	nregions := uint64(len(h.Regions))
	nmetrics := uint64(len(h.Metrics))
	nprocs := uint64(len(h.Procs))

	// One windowed decoder spans all rank blocks: the inter-block event
	// counts are parsed through the same window (blockCount), so the
	// whole event section decodes without per-byte reader dispatch.
	buf := windowPool.Get().(*[]byte)
	defer windowPool.Put(buf)
	dec := newStreamDecoder(br, *buf, nregions, nmetrics, nprocs)
	for rank := uint64(0); rank < nprocs; rank++ {
		nev, err := dec.blockCount()
		if err != nil || nev > maxEvents {
			return nil, formatf("rank %d event count: n=%d err=%v", rank, nev, err)
		}
		for i := uint64(0); i < nev; i++ {
			ev, err := dec.decode()
			if err != nil {
				return nil, formatf("rank %d event %d: %v", rank, i, err)
			}
			if err := fn(Rank(rank), ev); err != nil {
				if errors.Is(err, ErrStopStream) {
					return h, nil
				}
				return h, err
			}
		}
	}
	marker := dec.tail(4)
	if len(marker) < 4 {
		return nil, formatf("reading end marker: %v", io.ErrUnexpectedEOF)
	}
	if string(marker) != formatEnd {
		return nil, formatf("end marker %q, want %q", marker, formatEnd)
	}
	return h, nil
}

// StreamFile streams the archive at path through fn.
func StreamFile(path string, fn StreamFunc) (*Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Stream(f, fn)
}

// ReadHeaderFile reads only the definitions of the archive at path — the
// cheap first step before setting up streaming consumers.
func ReadHeaderFile(path string) (*Header, error) {
	return StreamFile(path, func(Rank, Event) error { return ErrStopStream })
}
