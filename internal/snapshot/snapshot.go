package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"sort"
)

// Typed sentinel errors; every failure Open or Section returns wraps
// one of these (or an I/O error), so callers can switch on the cause
// with errors.Is.
var (
	// ErrFormat means the file is not a snapshot container at all (bad
	// magic or a malformed table), or a backend found its section
	// group structurally invalid despite matching checksums.
	ErrFormat = errors.New("snapshot: not a snapshot file")
	// ErrVersion means the container format version is not supported by
	// this reader.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrChecksum means a CRC64 over the table or a section payload did
	// not match the stored value — the file is corrupt.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrBackend means the container's backend tag names a different
	// index type than the caller expected.
	ErrBackend = errors.New("snapshot: backend mismatch")
)

const (
	// Version is the container format version this package writes.
	Version = 1

	magic      = "PGRSNP01"
	headerSize = 32
	// maxSections bounds a table a reader will parse; a legitimate
	// engine snapshot holds a few dozen sections per shard.
	maxSections = 1 << 20
)

func align8(n int64) int64 { return (n + 7) &^ 7 }

var ecma = crc64.MakeTable(crc64.ECMA)

// checksum is the CRC64/ECMA every table and payload is stored with.
func checksum(data []byte) uint64 { return crc64.Checksum(data, ecma) }

// Builder accumulates named sections and writes them as one container.
// Sections are written in the order they were added; names must be
// unique within one container. The zero Builder is ready to use.
type Builder struct {
	sections []section
	names    map[string]bool
}

type section struct {
	name string
	data []byte
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{names: make(map[string]bool)} }

// Add appends a raw byte section. The builder keeps a reference to
// data; the caller must not mutate it before WriteTo returns. Adding a
// duplicate name panics — section names are produced by backend code,
// never by user input, so a collision is a programming error.
func (b *Builder) Add(name string, data []byte) {
	if len(name) == 0 || len(name) > math.MaxUint16 {
		panic(fmt.Sprintf("snapshot: section name length %d out of (0, 65535]", len(name)))
	}
	if b.names == nil {
		b.names = make(map[string]bool)
	}
	if b.names[name] {
		panic(fmt.Sprintf("snapshot: duplicate section %q", name))
	}
	b.names[name] = true
	b.sections = append(b.sections, section{name: name, data: data})
}

// AddU64s appends a []uint64 region encoded little-endian.
func (b *Builder) AddU64s(name string, v []uint64) { b.Add(name, U64Bytes(v)) }

// AddI32s appends a []int32 region encoded little-endian.
func (b *Builder) AddI32s(name string, v []int32) { b.Add(name, I32Bytes(v)) }

// WriteTo writes the container — header, table, payloads — to w with
// the given backend tag, returning the total number of bytes written.
func (b *Builder) WriteTo(w io.Writer, backend string) (int64, error) {
	if len(backend) == 0 || len(backend) > math.MaxUint16 {
		return 0, fmt.Errorf("snapshot: backend tag length %d out of (0, 65535]", len(backend))
	}
	// Table size is known up front: every entry has a fixed 24-byte
	// numeric part plus its length-prefixed name.
	tableLen := 2 + len(backend) + 4
	for _, s := range b.sections {
		tableLen += 2 + len(s.name) + 24
	}
	// Assign aligned payload offsets.
	offsets := make([]int64, len(b.sections))
	pos := align8(headerSize + int64(tableLen))
	for i, s := range b.sections {
		offsets[i] = pos
		pos = align8(pos + int64(len(s.data)))
	}

	table := make([]byte, 0, tableLen)
	table = appendStr16(table, backend)
	table = binary.LittleEndian.AppendUint32(table, uint32(len(b.sections)))
	for i, s := range b.sections {
		table = appendStr16(table, s.name)
		table = binary.LittleEndian.AppendUint64(table, uint64(offsets[i]))
		table = binary.LittleEndian.AppendUint64(table, uint64(len(s.data)))
		table = binary.LittleEndian.AppendUint64(table, checksum(s.data))
	}

	header := make([]byte, headerSize)
	copy(header, magic)
	binary.LittleEndian.PutUint32(header[8:], Version)
	binary.LittleEndian.PutUint32(header[12:], 0)
	binary.LittleEndian.PutUint64(header[16:], uint64(len(table)))
	binary.LittleEndian.PutUint64(header[24:], checksum(table))

	cw := &countingWriter{w: w}
	if _, err := cw.Write(header); err != nil {
		return cw.n, err
	}
	if _, err := cw.Write(table); err != nil {
		return cw.n, err
	}
	var pad [8]byte
	for i, s := range b.sections {
		if gap := offsets[i] - cw.n; gap > 0 {
			if _, err := cw.Write(pad[:gap]); err != nil {
				return cw.n, err
			}
		}
		if _, err := cw.Write(s.data); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func appendStr16(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// Reader gives checked access to the sections of one container. It is
// safe for concurrent use: every Section call reads and validates
// independently through the underlying io.ReaderAt.
type Reader struct {
	r        io.ReaderAt
	backend  string
	sections map[string]entry
	order    []string
}

type entry struct {
	off, length int64
	crc         uint64
}

// Open reads and validates the container header and section table.
// It returns ErrFormat for a non-snapshot file, ErrVersion for an
// unsupported format version and ErrChecksum for a corrupt table.
func Open(r io.ReaderAt) (*Reader, error) {
	header := make([]byte, headerSize)
	if _, err := r.ReadAt(header, 0); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: file shorter than the %d-byte header", ErrFormat, headerSize)
		}
		return nil, fmt.Errorf("snapshot: reading header: %w", err)
	}
	if string(header[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, header[:8])
	}
	if v := binary.LittleEndian.Uint32(header[8:]); v != Version {
		return nil, fmt.Errorf("%w: file has version %d, this reader supports %d", ErrVersion, v, Version)
	}
	if flags := binary.LittleEndian.Uint32(header[12:]); flags != 0 {
		// Flags are reserved; a file using one needs a newer reader.
		return nil, fmt.Errorf("%w: unknown flags 0x%08x", ErrVersion, flags)
	}
	tableLen := binary.LittleEndian.Uint64(header[16:])
	tableCRC := binary.LittleEndian.Uint64(header[24:])
	// maxSections entries at ~30 bytes each stay well under this cap; it
	// also bounds the allocation a corrupt length field can provoke.
	if tableLen == 0 || tableLen > 1<<26 {
		return nil, fmt.Errorf("%w: implausible table length %d", ErrFormat, tableLen)
	}
	table := make([]byte, tableLen)
	if _, err := r.ReadAt(table, headerSize); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("snapshot: table truncated: %w", io.ErrUnexpectedEOF)
		}
		return nil, fmt.Errorf("snapshot: reading table: %w", err)
	}
	if got := checksum(table); got != tableCRC {
		return nil, fmt.Errorf("%w: table CRC 0x%016x, want 0x%016x", ErrChecksum, got, tableCRC)
	}

	rd := &Reader{r: r, sections: make(map[string]entry)}
	p := table
	var ok bool
	if rd.backend, p, ok = takeStr16(p); !ok {
		return nil, fmt.Errorf("%w: truncated backend tag", ErrFormat)
	}
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: truncated section count", ErrFormat)
	}
	count := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if count > maxSections {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrFormat, count)
	}
	for i := uint32(0); i < count; i++ {
		var name string
		if name, p, ok = takeStr16(p); !ok || len(p) < 24 {
			return nil, fmt.Errorf("%w: truncated section entry %d", ErrFormat, i)
		}
		e := entry{
			off:    int64(binary.LittleEndian.Uint64(p)),
			length: int64(binary.LittleEndian.Uint64(p[8:])),
			crc:    binary.LittleEndian.Uint64(p[16:]),
		}
		p = p[24:]
		if e.off < 0 || e.length < 0 {
			return nil, fmt.Errorf("%w: section %q has negative offset or length", ErrFormat, name)
		}
		if _, dup := rd.sections[name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrFormat, name)
		}
		rd.sections[name] = e
		rd.order = append(rd.order, name)
	}
	return rd, nil
}

func takeStr16(b []byte) (string, []byte, bool) {
	if len(b) < 2 {
		return "", b, false
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n {
		return "", b, false
	}
	return string(b[2 : 2+n]), b[2+n:], true
}

// CheckBackend returns ErrBackend unless the container was written by
// the named backend.
func (rd *Reader) CheckBackend(want string) error {
	if rd.backend != want {
		return fmt.Errorf("%w: file written by %q, want %q", ErrBackend, rd.backend, want)
	}
	return nil
}

// Sections returns the section names in file order.
func (rd *Reader) Sections() []string { return append([]string(nil), rd.order...) }

// Section reads one payload and verifies its checksum. A missing
// section, a truncated file and a corrupt payload are all errors (the
// last wrapping ErrChecksum).
func (rd *Reader) Section(name string) ([]byte, error) {
	e, ok := rd.sections[name]
	if !ok {
		return nil, fmt.Errorf("snapshot: no section %q (have %v)", name, shortNames(rd.order))
	}
	// An empty section's aligned offset may sit past EOF when it is the
	// last one in the file; it is returned without reading, with only
	// its (constant) CRC checked.
	if e.length == 0 {
		if e.crc != checksum(nil) {
			return nil, fmt.Errorf("%w: empty section %q has CRC 0x%016x", ErrChecksum, name, e.crc)
		}
		return []byte{}, nil
	}
	data := make([]byte, e.length)
	if _, err := rd.r.ReadAt(data, e.off); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("snapshot: section %q truncated: %w", name, io.ErrUnexpectedEOF)
		}
		return nil, fmt.Errorf("snapshot: reading section %q: %w", name, err)
	}
	if got := checksum(data); got != e.crc {
		return nil, fmt.Errorf("%w: section %q CRC 0x%016x, want 0x%016x", ErrChecksum, name, got, e.crc)
	}
	return data, nil
}

// U64s reads a section as a little-endian []uint64 region.
func (rd *Reader) U64s(name string) ([]uint64, error) {
	b, err := rd.Section(name)
	if err != nil {
		return nil, err
	}
	v, err := BytesU64(b)
	if err != nil {
		return nil, fmt.Errorf("snapshot: section %q: %w", name, err)
	}
	return v, nil
}

// I32s reads a section as a little-endian []int32 region.
func (rd *Reader) I32s(name string) ([]int32, error) {
	b, err := rd.Section(name)
	if err != nil {
		return nil, err
	}
	v, err := BytesI32(b)
	if err != nil {
		return nil, fmt.Errorf("snapshot: section %q: %w", name, err)
	}
	return v, nil
}

// shortNames keeps "no such section" errors readable for containers
// with many sections.
func shortNames(names []string) []string {
	s := append([]string(nil), names...)
	sort.Strings(s)
	if len(s) > 12 {
		s = append(s[:12], "…")
	}
	return s
}

// --- flat-region codecs ------------------------------------------------------

// U64Bytes encodes v little-endian, 8 bytes per element.
func U64Bytes(v []uint64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
	return b
}

// BytesU64 decodes a little-endian []uint64 region.
func BytesU64(b []byte) ([]uint64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("length %d is not a multiple of 8", len(b))
	}
	v := make([]uint64, len(b)/8)
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return v, nil
}

// I32Bytes encodes v little-endian, 4 bytes per element.
func I32Bytes(v []int32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
	return b
}

// BytesI32 decodes a little-endian []int32 region.
func BytesI32(b []byte) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("length %d is not a multiple of 4", len(b))
	}
	v := make([]int32, len(b)/4)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v, nil
}

// Offsets converts per-item counts into a cumulative offset table of
// length len(counts)+1 with Offsets[0] = 0 — the shared encoding for
// variable-length sub-regions inside one flat section.
func Offsets(counts []int) []uint64 {
	off := make([]uint64, len(counts)+1)
	for i, c := range counts {
		off[i+1] = off[i] + uint64(c)
	}
	return off
}
