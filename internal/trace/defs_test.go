package trace

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// goldenTrace is the small fixture whose encodings are pinned below:
// one region, one metric, two procs, and every event kind.
func goldenTrace() *Trace {
	tr := New("g", 2)
	r := tr.AddRegion("f", ParadigmMPI, RoleBarrier)
	m := tr.AddMetric("c", "n", MetricAccumulated)
	tr.Append(0, Enter(10, r))
	tr.Append(0, Sample(12, m, 1.5))
	tr.Append(0, Send(13, 1, 7, 64))
	tr.Append(0, Leave(20, r))
	tr.Append(1, Recv(300, 0, 7, 64))
	return tr
}

const (
	goldenPVTR   = "505654520100000001670101660102010163016e00020950726f6365737320300950726f63657373203104000a00040200000000000000f83f0201010e400107000103ac02000e40454e4454"
	goldenAnchor = "505654410100000001670101660102010163016e00020950726f6365737320300950726f636573732031"
)

// TestWriteGoldenBytes pins the exact bytes of the PVTR writer and the
// directory anchor writer, so a change to the shared definitions
// encoder cannot silently alter the on-disk formats.
func TestWriteGoldenBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, goldenTrace()); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != goldenPVTR {
		t.Errorf("Write bytes:\n got %s\nwant %s", got, goldenPVTR)
	}
	dir := t.TempDir()
	if err := WriteDir(dir, goldenTrace()); err != nil {
		t.Fatal(err)
	}
	anchor, err := os.ReadFile(filepath.Join(dir, anchorName))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(anchor); got != goldenAnchor {
		t.Errorf("anchor bytes:\n got %s\nwant %s", got, goldenAnchor)
	}
}

// hugeDefs lists definitions sections (after magic and version) that
// declare 2^20 regions, metrics or procs and then end: 4–6 bytes that
// justify no allocation beyond a few fields.
var hugeDefs = []struct {
	what string
	defs []byte
}{
	{"regions", []byte{0, 0x80, 0x80, 0x40}}, // uvarint 0x808040 == maxDefs
	{"metrics", []byte{0, 0, 0x80, 0x80, 0x40}},
	{"procs", []byte{0, 0, 0, 0x80, 0x80, 0x40}},
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDeclaredCountsDoNotAmplify: a count that a handful of bytes
// declares — 2^20 definitions, or 2^32 events in a rank file — must be
// rejected without allocating for it: definitions grow only as real
// entries decode, and event buffers are sized only by counts the input
// can hold.
func TestDeclaredCountsDoNotAmplify(t *testing.T) {
	const budget = 1 << 20
	check := func(name string, read func() error) {
		t.Helper()
		var err error
		if n := allocated(func() { err = read() }); n >= budget {
			t.Errorf("%s: allocated %d bytes, want < %d", name, n, budget)
		}
		if !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}
	writeDir := func(anchor, rank0 []byte) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, anchorName), anchor, 0o644); err != nil {
			t.Fatal(err)
		}
		if rank0 != nil {
			if err := os.WriteFile(filepath.Join(dir, rankFileName(0)), rank0, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	for _, h := range hugeDefs {
		pvtr := append([]byte("PVTR\x01\x00\x00\x00"), h.defs...)
		check("Read "+h.what, func() error {
			_, err := Read(bytes.NewReader(pvtr))
			return err
		})
		check("ReadAnyLimit "+h.what, func() error {
			_, err := ReadAnyLimit(bytes.NewReader(pvtr), budget)
			return err
		})
		dir := writeDir(append([]byte("PVTA\x01\x00\x00\x00"), h.defs...), nil)
		check("ReadDir "+h.what, func() error {
			_, err := ReadDir(dir)
			return err
		})
	}
	// One proc whose 13-byte rank file declares 2^32 events.
	dir := writeDir([]byte("PVTA\x01\x00\x00\x00\x00\x00\x00\x01\x00"),
		[]byte("PVTE\x00\x00\x00\x00\x00\x01\x00\x00\x00"))
	check("ReadDir events", func() error {
		_, err := ReadDir(dir)
		return err
	})
}
