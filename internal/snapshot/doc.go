// Package snapshot defines the versioned, checksummed on-disk container
// every persistent pigeonring index is stored in. A snapshot is a flat
// collection of named byte sections — typically little-endian []uint64
// or []int32 regions — addressed by a table at the front of the file,
// so a reader can locate and validate any section with two bounded
// reads and no deserialization pass over the payload.
//
// # Layout (format version 1)
//
//	offset 0          header, 32 bytes:
//	    [0:8]   magic "PGRSNP01"
//	    [8:12]  format version (uint32, currently 1)
//	    [12:16] flags (uint32, reserved, zero)
//	    [16:24] table length in bytes (uint64)
//	    [24:32] CRC64/ECMA of the table bytes (uint64)
//	offset 32         table:
//	    backend tag   (uint16 length + bytes)
//	    section count (uint32)
//	    per section:  name (uint16 length + bytes),
//	                  absolute payload offset (uint64),
//	                  payload length (uint64),
//	                  CRC64/ECMA of the payload (uint64)
//	after the table   payloads, each aligned to an 8-byte boundary
//	                  with zero padding between them.
//
// Every multi-byte integer in the container is little-endian. Payload
// sections are written 8-byte aligned precisely so a future reader can
// mmap the file and serve []uint64 regions in place; the current
// Reader copies sections into memory but preserves the layout contract.
//
// # Integrity and versioning
//
// Open validates the magic (ErrFormat), the format version
// (ErrVersion) and the table checksum (ErrChecksum) before returning;
// each section's checksum is verified on first read, so a flipped byte
// anywhere in the file surfaces as ErrChecksum and a truncated file as
// a wrapped io.ErrUnexpectedEOF. The backend tag names the index type
// that wrote the file ("pigeonring-engine" for every engine index), letting a
// reader reject a structurally valid snapshot of the wrong kind before
// touching any section.
//
// The format version covers the container only. Backends version their
// own section schemas through their meta sections; adding a section is
// backward compatible (old readers ignore unknown names), while
// changing the meaning of an existing section requires bumping the
// container version.
package snapshot
