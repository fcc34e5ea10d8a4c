package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// Directory archive format: the multi-file sibling of the single-file
// PVTR archive, mirroring how Score-P/OTF2 lay out measurements so every
// rank can write its own stream without coordination:
//
//	<dir>/anchor.pvta        magic "PVTA" | version | name | defs | #procs
//	<dir>/rank-<N>.pvte      magic "PVTE" | rank | uvarint #events | events
//
// The anchor holds the global definitions; rank files are self-delimiting
// event streams using the shared codec. RankWriter allows incremental
// (measurement-time) writing of a rank file.

const (
	anchorMagic = "PVTA"
	rankMagic   = "PVTE"
	anchorName  = "anchor.pvta"
)

func rankFileName(rank int) string { return fmt.Sprintf("rank-%d.pvte", rank) }

// WriteDir writes tr as a directory archive at dir (created if needed).
func WriteDir(dir string, tr *Trace) error {
	if err := WriteAnchor(dir, headerOf(tr)); err != nil {
		return err
	}
	for rank := range tr.Procs {
		w, err := NewRankWriter(dir, rank)
		if err != nil {
			return err
		}
		for _, ev := range tr.Procs[rank].Events {
			if err := w.Write(ev); err != nil {
				w.Close()
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// WriteAnchor writes dir's anchor file (created if needed) from h's
// definitions — the measurement-time sibling of WriteDir for archives
// built incrementally through RankWriter, whose events do not exist yet
// when the definitions are known.
func WriteAnchor(dir string, h *Header) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, anchorName))
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	writeDefs(bw, anchorMagic, h)
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadDir reads a directory archive: OpenDirRankStreams, then every rank
// file drained in parallel through StreamRank. Missing rank files yield
// empty streams (a rank that recorded nothing), corrupt ones an error;
// on failure the error of the lowest failing rank is reported, as a
// serial loop would.
func ReadDir(dir string) (*Trace, error) {
	ds, err := OpenDirRankStreams(dir)
	if err != nil {
		return nil, err
	}
	return collect(ds)
}

// RankWriter incrementally writes one rank's event file — the
// measurement-time API: each process appends its own events with no
// global coordination. The event count is back-patched on Close.
type RankWriter struct {
	f     *os.File
	bw    *bufio.Writer
	enc   *eventEncoder
	count uint64
	path  string
	rank  int
}

// NewRankWriter creates (or truncates) dir/rank-<rank>.pvte.
func NewRankWriter(dir string, rank int) (*RankWriter, error) {
	path := filepath.Join(dir, rankFileName(rank))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &RankWriter{f: f, path: path, rank: rank}
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.enc = newEventEncoder(w.bw)
	w.bw.WriteString(rankMagic)
	w.enc.putUvarint(uint64(rank))
	// Placeholder for the event count: fixed 8-byte slot so it can be
	// patched without rewriting (encoded as fixed64, not varint).
	binary.Write(w.bw, binary.LittleEndian, uint64(0))
	return w, nil
}

// Write appends one event (timestamps must be non-decreasing).
func (w *RankWriter) Write(ev Event) error {
	if err := w.enc.encode(ev); err != nil {
		return err
	}
	w.count++
	return nil
}

// Close flushes the stream and patches the event count.
func (w *RankWriter) Close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	// Patch the count slot: after magic (4 bytes) + rank uvarint.
	var rankBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(rankBuf[:], uint64(w.rank))
	var countBuf [8]byte
	binary.LittleEndian.PutUint64(countBuf[:], w.count)
	if _, err := w.f.WriteAt(countBuf[:], int64(4+n)); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
