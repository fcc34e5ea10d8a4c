package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"perfvar/internal/parallel"
)

// Resumable per-rank stream readers. OpenRankStreams scans a PVTR
// archive's framing once to locate every rank's event block; afterwards
// each rank's events can be decoded independently, repeatedly, and
// concurrently without ever materializing an event slice — the I/O layer
// of the streaming analysis engine. Directory archives get the same
// interface from OpenDirRankStreams, where the per-rank files provide the
// framing for free. Memory is O(definitions + ranks), never O(events).

// decodeBufPool recycles the bufio readers behind header parses and
// framing scans, so repeated opens reuse a handful of buffers.
var decodeBufPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 1<<16) },
}

// windowPool recycles the event-decoder windows behind per-rank stream
// decodes (newStreamDecoder), so an analysis over many ranks reuses a
// few 64 KiB buffers instead of allocating one per StreamRank call.
var windowPool = sync.Pool{
	New: func() any { b := make([]byte, 1<<16); return &b },
}

// rankSpan locates one rank's event block inside an archive.
type rankSpan struct {
	nev uint64
	off int64 // absolute byte offset of the block's first event
	len int64 // encoded byte length of the block
}

// RankStreams provides independent per-rank event streams over a PVTR
// archive backed by an io.ReaderAt (an open file) or a byte slice (an
// upload already in memory). The framing scan runs once in
// OpenRankStreams/OpenRankStreamsBytes; StreamRank then decodes straight
// from the backing store — for in-memory archives without copying a
// single event byte.
type RankStreams struct {
	header *Header
	src    io.ReaderAt
	data   []byte // non-nil when the archive is fully in memory
	spans  []rankSpan
}

// countingReader tracks the absolute offset of a buffered sequential
// reader, so the framing scan can record byte spans and truncation
// errors can report where the archive broke off.
type countingReader struct {
	br *bufio.Reader
	n  int64
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.n += int64(n)
	return n, err
}

// skipEventsReader advances br past n encoded events, validating only the
// framing — the streaming sibling of skipEvents.
func skipEventsReader(br byteReader, n uint64) error {
	var fixed [8]byte
	for i := uint64(0); i < n; i++ {
		kb, err := br.ReadByte()
		if err != nil {
			return formatf("event %d: truncated", i)
		}
		if _, err := binary.ReadUvarint(br); err != nil { // delta timestamp
			return formatf("event %d: truncated time", i)
		}
		switch EventKind(kb) {
		case KindEnter, KindLeave:
			if _, err := binary.ReadUvarint(br); err != nil {
				return formatf("event %d: truncated region", i)
			}
		case KindMetric:
			if _, err := binary.ReadUvarint(br); err != nil {
				return formatf("event %d: truncated metric", i)
			}
			if _, err := io.ReadFull(br, fixed[:]); err != nil {
				return formatf("event %d: truncated value", i)
			}
		case KindSend, KindRecv:
			if _, err := binary.ReadUvarint(br); err != nil {
				return formatf("event %d: truncated message", i)
			}
			if _, err := binary.ReadVarint(br); err != nil {
				return formatf("event %d: truncated message", i)
			}
			if _, err := binary.ReadUvarint(br); err != nil {
				return formatf("event %d: truncated message", i)
			}
		default:
			return formatf("event %d: unknown event kind %d", i, kb)
		}
	}
	return nil
}

// OpenRankStreams scans the PVTR archive in src (size bytes long) and
// returns per-rank stream handles. The scan parses the definitions and
// walks the event framing once — no event is decoded or retained — and
// verifies the end marker, so a structurally corrupt archive fails here,
// locating the failure by rank and byte offset, rather than mid-analysis.
func OpenRankStreams(src io.ReaderAt, size int64) (*RankStreams, error) {
	br := decodeBufPool.Get().(*bufio.Reader)
	br.Reset(io.NewSectionReader(src, 0, size))
	defer decodeBufPool.Put(br)
	cr := &countingReader{br: br}
	h, err := readDefs(cr, formatMagic)
	if err != nil {
		return nil, err
	}
	spans := make([]rankSpan, len(h.Procs))
	for rank := range spans {
		nev, err := binary.ReadUvarint(cr)
		if err != nil || nev > maxEvents {
			return nil, formatf("rank %d event count at byte %d: n=%d err=%v", rank, cr.n, nev, err)
		}
		start := cr.n
		if err := skipEventsReader(cr, nev); err != nil {
			return nil, formatf("rank %d at archive byte %d: %v", rank, cr.n, err)
		}
		spans[rank] = rankSpan{nev: nev, off: start, len: cr.n - start}
	}
	var marker [4]byte
	if _, err := io.ReadFull(cr, marker[:]); err != nil {
		return nil, formatf("reading end marker at byte %d: %v", cr.n, err)
	}
	if string(marker[:]) != formatEnd {
		return nil, formatf("end marker %q, want %q", marker[:], formatEnd)
	}
	return &RankStreams{header: h, src: src, spans: spans}, nil
}

// OpenRankStreamsBytes is OpenRankStreams for an archive already in
// memory. The framing scan runs directly over the byte slice, and
// StreamRank later decodes each rank's block zero-copy — the fast path
// behind uploaded-archive analysis.
func OpenRankStreamsBytes(data []byte) (*RankStreams, error) {
	r := bytes.NewReader(data)
	h, err := readDefs(r, formatMagic)
	if err != nil {
		return nil, err
	}
	off := int64(len(data)) - int64(r.Len())
	spans := make([]rankSpan, len(h.Procs))
	for rank := range spans {
		nev, sz := binary.Uvarint(data[off:])
		if sz <= 0 || nev > maxEvents {
			return nil, formatf("rank %d event count at byte %d: n=%d truncated=%v", rank, off, nev, sz <= 0)
		}
		off += int64(sz)
		blen, err := skipEvents(data[off:], nev)
		if err != nil {
			return nil, formatf("rank %d at archive byte %d: %v", rank, off, err)
		}
		spans[rank] = rankSpan{nev: nev, off: off, len: int64(blen)}
		off += int64(blen)
	}
	if int64(len(data))-off < 4 {
		return nil, formatf("reading end marker at byte %d: %v", off, io.ErrUnexpectedEOF)
	}
	if got := string(data[off : off+4]); got != formatEnd {
		return nil, formatf("end marker %q, want %q", got, formatEnd)
	}
	return &RankStreams{header: h, data: data, spans: spans}, nil
}

// Header returns the archive's definitions.
func (rs *RankStreams) Header() *Header { return rs.header }

// NumRanks returns the number of per-rank streams.
func (rs *RankStreams) NumRanks() int { return len(rs.spans) }

// StreamRank decodes rank's events and feeds them to fn in stream order.
// Every call re-reads the rank's block from the backing store, so streams
// are resumable; calls for different ranks may run concurrently.
// Returning ErrStopStream from fn ends the stream early without error.
func (rs *RankStreams) StreamRank(rank int, fn func(Event) error) error {
	return rs.streamRank(rank, nil, fn)
}

func (rs *RankStreams) streamRank(rank int, sized func(nev uint64), fn func(Event) error) error {
	if rank < 0 || rank >= len(rs.spans) {
		return formatf("rank %d out of range", rank)
	}
	sp := rs.spans[rank]
	if sized != nil {
		sized(sp.nev)
	}
	nregions := uint64(len(rs.header.Regions))
	nmetrics := uint64(len(rs.header.Metrics))
	nprocs := uint64(len(rs.header.Procs))
	var dec *eventDecoder
	if rs.data != nil {
		dec = newSliceDecoder(rs.data[sp.off:sp.off+sp.len], nregions, nmetrics, nprocs)
	} else {
		buf := windowPool.Get().(*[]byte)
		defer windowPool.Put(buf)
		dec = newStreamDecoder(io.NewSectionReader(rs.src, sp.off, sp.len), *buf, nregions, nmetrics, nprocs)
	}
	for i := uint64(0); i < sp.nev; i++ {
		ev, err := dec.decode()
		if err != nil {
			return formatf("rank %d event %d (archive byte %d): %v", rank, i, sp.off+dec.offset(), err)
		}
		if err := fn(ev); err != nil {
			if errors.Is(err, ErrStopStream) {
				return nil
			}
			return err
		}
	}
	return nil
}

// DirStreams provides per-rank event streams over a directory archive.
// The anchor's definitions are read once in OpenDirRankStreams; each
// StreamRank call decodes the rank's own event file.
type DirStreams struct {
	header *Header
	dir    string
}

// OpenDirRankStreams opens the directory archive at dir for per-rank
// streaming. Missing rank files stream zero events, mirroring ReadDir.
func OpenDirRankStreams(dir string) (*DirStreams, error) {
	path := filepath.Join(dir, anchorName)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := decodeBufPool.Get().(*bufio.Reader)
	br.Reset(f)
	defer decodeBufPool.Put(br)
	h, err := readDefs(br, anchorMagic)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &DirStreams{header: h, dir: dir}, nil
}

// Header returns the archive's definitions.
func (ds *DirStreams) Header() *Header { return ds.header }

// NumRanks returns the number of per-rank streams.
func (ds *DirStreams) NumRanks() int { return len(ds.header.Procs) }

// StreamRank decodes rank's event file and feeds the events to fn in
// stream order. Every call re-opens the file, so streams are resumable;
// calls for different ranks may run concurrently. Returning ErrStopStream
// from fn ends the stream early without error.
func (ds *DirStreams) StreamRank(rank int, fn func(Event) error) error {
	return ds.streamRank(rank, nil, fn)
}

func (ds *DirStreams) streamRank(rank int, sized func(nev uint64), fn func(Event) error) error {
	if rank < 0 || rank >= len(ds.header.Procs) {
		return formatf("rank %d out of range", rank)
	}
	path := filepath.Join(ds.dir, rankFileName(rank))
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil // a rank that recorded nothing
	}
	if err != nil {
		return err
	}
	defer f.Close()
	br := decodeBufPool.Get().(*bufio.Reader)
	br.Reset(f)
	defer decodeBufPool.Put(br)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return formatf("%s: magic: %v", path, err)
	}
	if string(magic[:]) != rankMagic {
		return formatf("%s: magic %q, want %q", path, magic[:], rankMagic)
	}
	fileRank, err := binary.ReadUvarint(br)
	if err != nil || int(fileRank) != rank {
		return formatf("%s: rank %d, want %d (err=%v)", path, fileRank, rank, err)
	}
	var nev uint64
	if err := binary.Read(br, binary.LittleEndian, &nev); err != nil {
		return formatf("%s: event count: %v", path, err)
	}
	// Every event takes at least two bytes (kind and time delta), which
	// bounds the count by the file size before anything is sized by it.
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if nev > maxEvents || nev > uint64(fi.Size())/2 {
		return formatf("%s: event count %d exceeds limit or %d-byte file", path, nev, fi.Size())
	}
	if sized != nil {
		sized(nev)
	}
	buf := windowPool.Get().(*[]byte)
	defer windowPool.Put(buf)
	dec := newStreamDecoder(br, *buf, uint64(len(ds.header.Regions)), uint64(len(ds.header.Metrics)), uint64(len(ds.header.Procs)))
	for i := uint64(0); i < nev; i++ {
		ev, err := dec.decode()
		if err != nil {
			return formatf("%s: rank %d event %d: %v", path, rank, i, err)
		}
		if err := fn(ev); err != nil {
			if errors.Is(err, ErrStopStream) {
				return nil
			}
			return err
		}
	}
	return nil
}

// rankSource is what collect drains: RankStreams or DirStreams.
// streamRank is StreamRank that first reports the rank's event count —
// bounded by the bytes backing it — to sized, when non-nil.
type rankSource interface {
	Header() *Header
	streamRank(rank int, sized func(nev uint64), fn func(Event) error) error
}

// collect materializes src into a trace, draining every rank's stream in
// parallel. Each rank's first allocation is sized by its reported event
// count, capped so that append grows past the cap only as real events
// decode. A rank that streams no events keeps a nil slice. On failure
// the lowest failing rank's error is returned, as a serial loop would.
func collect(src rankSource) (*Trace, error) {
	h := src.Header()
	perRank, err := parallel.Map(len(h.Procs), func(rank int) ([]Event, error) {
		var evs []Event
		sized := func(nev uint64) {
			if nev > 0 {
				evs = make([]Event, 0, min(nev, 1<<16))
			}
		}
		err := src.streamRank(rank, sized, func(ev Event) error {
			evs = append(evs, ev)
			return nil
		})
		return evs, err
	})
	if err != nil {
		return nil, err
	}
	tr := &Trace{Name: h.Name, Regions: h.Regions, Metrics: h.Metrics, Procs: make([]ProcessTrace, len(h.Procs))}
	for rank := range tr.Procs {
		tr.Procs[rank] = ProcessTrace{Proc: h.Procs[rank], Events: perRank[rank]}
	}
	return tr, nil
}
