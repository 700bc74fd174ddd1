// Package reclog is the record log under the tsdb write-ahead log and
// the publish client's disk spool: an append-only file of records framed
//
//	u32le payload length | u32le CRC-32 (IEEE) of payload | payload
//
// and its one recovery rule. A record is located when its header is
// whole, its length nonzero and its end within the file. A located
// record whose CRC, or whose payload by its user's decoder, fails is
// skipped alone; the next one starts at its end. The first record that
// cannot be located ends the log: the torn tail of a crash, or a hole of
// zeros, since no writer writes an empty payload.
package reclog

import (
	"encoding/binary"
	"hash/crc32"
)

// HeaderSize is the length of the header in front of every payload.
const HeaderSize = 8

// Seal fills in the header of rec, which holds HeaderSize bytes of room
// and then the payload.
func Seal(rec []byte) {
	payload := rec[HeaderSize:]
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
}

// Locate returns the payload length declared by hdr, the bytes at offset
// off of a log of size bytes, and whether that record is located.
func Locate(hdr []byte, off, size int64) (int64, bool) {
	if len(hdr) < HeaderSize {
		return 0, false
	}
	n := int64(binary.LittleEndian.Uint32(hdr))
	return n, n > 0 && off+HeaderSize+n <= size
}

// Check reports whether payload matches the CRC in its record's header.
func Check(hdr, payload []byte) bool {
	return crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(hdr[4:])
}
