package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Binary archive format ("PVTR", version 1):
//
//	magic "PVTR" | uint32 version
//	string name
//	uvarint #regions  { string name | byte paradigm | byte role }...
//	uvarint #metrics  { string name | string unit | byte mode }...
//	uvarint #procs    { string name }...
//	per proc: uvarint #events, then events with delta-encoded timestamps:
//	  byte kind | uvarint Δtime | kind-specific payload
//	magic "ENDT"
//
// Strings are uvarint length + raw bytes. Timestamps are deltas against the
// previous event of the same stream, so long iterative traces compress to a
// few bytes per event.

const (
	formatMagic   = "PVTR"
	formatEnd     = "ENDT"
	formatVersion = 1

	// Hard caps guard the reader against corrupt or hostile inputs.
	maxDefs      = 1 << 20
	maxEvents    = 1 << 33
	maxStringLen = 1 << 16
)

// ErrFormat wraps all archive decoding failures.
var ErrFormat = errors.New("trace: bad archive")

// ErrTooLarge reports an archive exceeding the byte limit handed to
// ReadAnyLimit. Servers map it to 413; it is distinct from ErrFormat
// because the archive may be perfectly well-formed.
var ErrTooLarge = errors.New("trace: archive exceeds size limit")

// cappedReader yields at most n bytes from r and fails with ErrTooLarge
// on the first read past the cap — unlike io.LimitReader, which reports
// a clean EOF that a decoder would misdiagnose as a truncated archive.
type cappedReader struct {
	r io.Reader
	n int64
	// tripped records that the cap was hit, surviving any error
	// rewrapping the decoder applies on the way out.
	tripped bool
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if c.n <= 0 {
		// Cap exhausted: probe one byte to tell a stream that ends
		// exactly at the cap (clean EOF) from one running past it.
		var b [1]byte
		n, err := c.r.Read(b[:])
		if n > 0 {
			c.tripped = true
			return 0, ErrTooLarge
		}
		return 0, err
	}
	if int64(len(p)) > c.n {
		p = p[:c.n]
	}
	n, err := c.r.Read(p)
	c.n -= int64(n)
	return n, err
}

func formatf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFormat, fmt.Sprintf(format, args...))
}

// Write encodes tr to w in the PVTR binary format.
func Write(w io.Writer, tr *Trace) error {
	counts := make([]uint64, len(tr.Procs))
	for i := range tr.Procs {
		counts[i] = uint64(len(tr.Procs[i].Events))
	}
	return WriteFrom(w, headerOf(tr), counts, func(rank int, emit func(Event) error) error {
		for _, ev := range tr.Procs[rank].Events {
			if err := emit(ev); err != nil {
				return err
			}
		}
		return nil
	})
}

// headerOf returns tr's definitions as a Header.
func headerOf(tr *Trace) *Header {
	h := &Header{Name: tr.Name, Regions: tr.Regions, Metrics: tr.Metrics}
	for i := range tr.Procs {
		h.Procs = append(h.Procs, tr.Procs[i].Proc)
	}
	return h
}

// WriteFrom encodes a PVTR archive whose events are produced on demand:
// the definitions come from h, rank r's block is declared counts[r]
// events long, and gen is called once per rank to emit exactly that
// many events (in non-decreasing time order) through emit. Nothing is
// materialized — memory stays O(definitions) — so a deterministic
// generator can write archives far larger than RAM
// (workloads.SyntheticConfig.WriteArchive). gen must emit exactly the
// declared count: the count prefixes the block, and a mismatch would
// corrupt the framing, so WriteFrom rejects it.
func WriteFrom(w io.Writer, h *Header, counts []uint64, gen func(rank int, emit func(Event) error) error) error {
	if len(counts) != len(h.Procs) {
		return formatf("WriteFrom: %d event counts for %d procs", len(counts), len(h.Procs))
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	writeDefs(bw, formatMagic, h)
	for rank := range h.Procs {
		enc := newEventEncoder(bw)
		enc.putUvarint(counts[rank])
		var emitted uint64
		emit := func(ev Event) error {
			if emitted >= counts[rank] {
				return formatf("rank %d: generator emitted more than the %d declared events", rank, counts[rank])
			}
			emitted++
			if err := enc.encode(ev); err != nil {
				return formatf("rank %d: %v", rank, err)
			}
			return nil
		}
		if err := gen(rank, emit); err != nil {
			return err
		}
		if emitted != counts[rank] {
			return formatf("rank %d: generator emitted %d of %d declared events", rank, emitted, counts[rank])
		}
	}
	bw.WriteString(formatEnd)
	return bw.Flush()
}

// writeDefs encodes the definitions preamble shared by PVTR archives and
// directory-archive anchors, which differ only in their magic. Write
// errors stick in bw and surface on its Flush.
func writeDefs(bw *bufio.Writer, magic string, h *Header) {
	enc := newEventEncoder(bw)
	putString := func(s string) {
		enc.putUvarint(uint64(len(s)))
		bw.WriteString(s)
	}
	bw.WriteString(magic)
	binary.Write(bw, binary.LittleEndian, uint32(formatVersion))
	putString(h.Name)
	enc.putUvarint(uint64(len(h.Regions)))
	for _, r := range h.Regions {
		putString(r.Name)
		bw.WriteByte(byte(r.Paradigm))
		bw.WriteByte(byte(r.Role))
	}
	enc.putUvarint(uint64(len(h.Metrics)))
	for _, m := range h.Metrics {
		putString(m.Name)
		putString(m.Unit)
		bw.WriteByte(byte(m.Mode))
	}
	enc.putUvarint(uint64(len(h.Procs)))
	for _, p := range h.Procs {
		putString(p.Name)
	}
}

// readDefs parses the definitions preamble written by writeDefs — magic,
// version, name, regions, metrics, procs — leaving br positioned just
// past it. It is the one definitions decoder behind every binary reader.
// Declared counts are only checked against maxDefs: entries are appended
// as they decode, so a short input cannot claim a large allocation.
func readDefs(br byteReader, magic string) (*Header, error) {
	readString := func() (string, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return "", err
		}
		if n > maxStringLen {
			return "", formatf("string length %d exceeds limit", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	readCount := func(what string) (uint64, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil || n > maxDefs {
			return 0, formatf("%s count: n=%d err=%v", what, n, err)
		}
		return n, nil
	}

	var head [8]byte
	if _, err := io.ReadFull(br, head[:4]); err != nil {
		return nil, formatf("reading magic: %v", err)
	}
	if string(head[:4]) != magic {
		return nil, formatf("magic %q, want %q", head[:4], magic)
	}
	if _, err := io.ReadFull(br, head[4:]); err != nil {
		return nil, formatf("reading version: %v", err)
	}
	if version := binary.LittleEndian.Uint32(head[4:]); version != formatVersion {
		return nil, formatf("version %d, want %d", version, formatVersion)
	}

	h := &Header{}
	var err error
	if h.Name, err = readString(); err != nil {
		return nil, formatf("reading name: %v", err)
	}
	nregions, err := readCount("region")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nregions; i++ {
		name, err := readString()
		if err != nil {
			return nil, formatf("region %d name: %v", i, err)
		}
		pb, err := br.ReadByte()
		if err != nil {
			return nil, formatf("region %d paradigm: %v", i, err)
		}
		rb, err := br.ReadByte()
		if err != nil {
			return nil, formatf("region %d role: %v", i, err)
		}
		h.Regions = append(h.Regions, Region{ID: RegionID(i), Name: name, Paradigm: Paradigm(pb), Role: RegionRole(rb)})
	}
	nmetrics, err := readCount("metric")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nmetrics; i++ {
		name, err := readString()
		if err != nil {
			return nil, formatf("metric %d name: %v", i, err)
		}
		unit, err := readString()
		if err != nil {
			return nil, formatf("metric %d unit: %v", i, err)
		}
		mb, err := br.ReadByte()
		if err != nil {
			return nil, formatf("metric %d mode: %v", i, err)
		}
		h.Metrics = append(h.Metrics, Metric{ID: MetricID(i), Name: name, Unit: unit, Mode: MetricMode(mb)})
	}
	nprocs, err := readCount("proc")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nprocs; i++ {
		name, err := readString()
		if err != nil {
			return nil, formatf("proc %d name: %v", i, err)
		}
		h.Procs = append(h.Procs, Process{Rank: Rank(i), Name: name})
	}
	return h, nil
}

// Read decodes a PVTR archive from r with no size cap; use ReadAnyLimit
// for untrusted inputs. The archive is slurped and opened with
// OpenRankStreamsBytes, whose framing scan locates and checks every rank
// block, and the blocks then decode in parallel through the same
// StreamRank the streaming engine uses.
func Read(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, formatf("reading archive: %v", err)
	}
	rs, err := OpenRankStreamsBytes(data)
	if err != nil {
		return nil, err
	}
	return collect(rs)
}

// WriteFile writes tr to path in the PVTR binary format.
func WriteFile(path string, tr *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
