package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func buildSample(t *testing.T) []byte {
	t.Helper()
	b := NewBuilder()
	b.AddU64s("meta", []uint64{64, 8, 1000})
	b.AddI32s("ids", []int32{1, -2, 3, 40000})
	b.Add("blob", []byte("hello pigeonring"))
	b.Add("empty", nil)
	var buf bytes.Buffer
	n, err := b.WriteTo(&buf, "test-backend")
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := buildSample(t)
	rd, err := Open(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := rd.CheckBackend("test-backend"); err != nil {
		t.Fatalf("CheckBackend: %v", err)
	}
	if err := rd.CheckBackend("other"); !errors.Is(err, ErrBackend) {
		t.Fatalf("CheckBackend(other) = %v, want ErrBackend", err)
	}

	meta, err := rd.U64s("meta")
	if err != nil {
		t.Fatalf("U64s(meta): %v", err)
	}
	if want := []uint64{64, 8, 1000}; !equalU64(meta, want) {
		t.Fatalf("meta = %v, want %v", meta, want)
	}
	ids, err := rd.I32s("ids")
	if err != nil {
		t.Fatalf("I32s(ids): %v", err)
	}
	if want := []int32{1, -2, 3, 40000}; !equalI32(ids, want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	blob, err := rd.Section("blob")
	if err != nil {
		t.Fatalf("Section(blob): %v", err)
	}
	if string(blob) != "hello pigeonring" {
		t.Fatalf("blob = %q", blob)
	}
	empty, err := rd.Section("empty")
	if err != nil {
		t.Fatalf("Section(empty): %v", err)
	}
	if len(empty) != 0 {
		t.Fatalf("empty section has %d bytes", len(empty))
	}
	if _, err := rd.Section("missing"); err == nil {
		t.Fatal("Section(missing) succeeded")
	}
	if got := rd.Sections(); len(got) != 4 || got[0] != "meta" {
		t.Fatalf("Sections() = %v", got)
	}
}

func TestAlignment(t *testing.T) {
	data := buildSample(t)
	rd, err := Open(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for name, e := range rd.sections {
		if e.off%8 != 0 {
			t.Errorf("section %q offset %d not 8-aligned", name, e.off)
		}
	}
}

func TestFlippedByte(t *testing.T) {
	orig := buildSample(t)
	// Flip every byte position one at a time; each corrupted file must
	// fail somewhere — at Open or at one of the section reads — and
	// never return wrong data silently.
	rd0, err := Open(bytes.NewReader(orig))
	if err != nil {
		t.Fatal(err)
	}
	names := rd0.Sections()
	for pos := 0; pos < len(orig); pos++ {
		data := append([]byte(nil), orig...)
		data[pos] ^= 0x40
		rd, err := Open(bytes.NewReader(data))
		if err != nil {
			continue // header/table corruption caught at Open
		}
		failed := false
		for _, name := range names {
			got, err := rd.Section(name)
			if err != nil {
				failed = true
				continue
			}
			want, _ := rd0.Section(name)
			if !bytes.Equal(got, want) {
				t.Fatalf("flip at %d: section %q returned corrupt data without error", pos, name)
			}
		}
		if !failed {
			// A flip inside zero padding changes no section; only
			// padding bytes may pass unnoticed.
			if !isPadding(rd0, pos) {
				t.Fatalf("flip at byte %d went undetected", pos)
			}
		}
	}
}

func isPadding(rd *Reader, pos int) bool {
	for _, e := range rd.sections {
		if int64(pos) >= e.off && int64(pos) < e.off+e.length {
			return false
		}
	}
	// Anything outside header+table+sections is padding.
	return pos >= headerSize
}

func TestPayloadCorruptionIsChecksum(t *testing.T) {
	data := buildSample(t)
	rd, err := Open(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	e := rd.sections["blob"]
	data[e.off] ^= 1
	rd2, err := Open(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Open after payload flip: %v", err)
	}
	if _, err := rd2.Section("blob"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Section on corrupt payload = %v, want ErrChecksum", err)
	}
}

func TestTruncated(t *testing.T) {
	data := buildSample(t)
	for _, cut := range []int{0, 4, headerSize - 1, headerSize + 3, len(data) / 2, len(data) - 1} {
		rd, err := Open(bytes.NewReader(data[:cut]))
		if err != nil {
			continue // truncation inside header/table is an Open error
		}
		sawErr := false
		for _, name := range rd.Sections() {
			if _, err := rd.Section(name); err != nil {
				sawErr = true
				if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrChecksum) {
					t.Fatalf("cut=%d section %q: %v", cut, name, err)
				}
			}
		}
		if cut < len(data) && !sawErr {
			// cutting only trailing padding loses nothing
			last := rd.Sections()[len(rd.Sections())-1]
			e := rd.sections[last]
			if int64(cut) < e.off+e.length {
				t.Fatalf("cut=%d lost section bytes without error", cut)
			}
		}
	}
}

func TestWrongMagic(t *testing.T) {
	data := buildSample(t)
	copy(data, "NOTASNAP")
	if _, err := Open(bytes.NewReader(data)); !errors.Is(err, ErrFormat) {
		t.Fatalf("Open = %v, want ErrFormat", err)
	}
}

func TestWrongVersion(t *testing.T) {
	data := buildSample(t)
	binary.LittleEndian.PutUint32(data[8:], 99)
	if _, err := Open(bytes.NewReader(data)); !errors.Is(err, ErrVersion) {
		t.Fatalf("Open = %v, want ErrVersion", err)
	}
}

func TestTableCorruptionIsChecksum(t *testing.T) {
	data := buildSample(t)
	data[headerSize+2] ^= 1 // inside the backend tag
	if _, err := Open(bytes.NewReader(data)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Open = %v, want ErrChecksum", err)
	}
}

func TestEmptyContainer(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewBuilder().WriteTo(&buf, "none"); err != nil {
		t.Fatal(err)
	}
	rd, err := Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.CheckBackend("none"); err != nil || len(rd.Sections()) != 0 {
		t.Fatalf("CheckBackend(none) = %v, sections=%v", err, rd.Sections())
	}
}

func TestDuplicateSectionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	b := NewBuilder()
	b.Add("x", nil)
	b.Add("x", nil)
}

func TestCodecs(t *testing.T) {
	if _, err := BytesU64([]byte{1, 2, 3}); err == nil {
		t.Fatal("BytesU64 accepted length 3")
	}
	if _, err := BytesI32([]byte{1, 2, 3}); err == nil {
		t.Fatal("BytesI32 accepted length 3")
	}
	off := Offsets([]int{2, 0, 5})
	if want := []uint64{0, 2, 2, 7}; !equalU64(off, want) {
		t.Fatalf("Offsets = %v, want %v", off, want)
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
