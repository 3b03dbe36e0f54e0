// Package spill is the durable spill tier behind the KeyDB-FLASH
// configurations: a Bitcask-style append-only log of CRC32C-framed
// records with an in-memory keydir, segment rotation, hint files for
// fast recovery, and a recovery fsck that truncates torn tails and
// quarantines corrupt records.
//
// The SSD tier's performance is purely analytic (the RocksDB cost
// constants and latency accounting in internal/kvstore): without this
// package nothing is ever written, so crashes, torn writes, and bit rot were unmodeled
// failure modes. Here every acknowledged write is framed, checksummed,
// and (by default) fsynced, and recovery rebuilds the keydir
// deterministically from the log — the bridge between the virtual-time
// simulation and a real durable service.
//
// All physical writes and fsyncs are routed through an optional Shim,
// which is how internal/fault's DiskInjector kills the tier at every
// write/flush boundary, tears the final write, or flips a bit — the
// crash matrix replays a seeded workload, crashes at boundary k for
// every k, recovers, and asserts that no acknowledged write is lost and
// no unacknowledged write is half-visible.
package spill

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Record framing, little-endian:
//
//	[0:2)   magic (0x7C, 0xB1)
//	[2:6)   CRC32C over bytes [6:total)
//	[6:7)   flags (bit0 = tombstone)
//	[7:15)  seq — monotonic log sequence number
//	[15:19) key length
//	[19:23) value length
//	[23:)   key bytes, then value bytes
//
// The leading magic lets fsck resynchronize after a corrupt record: it
// scans forward for the next offset that decodes with a valid checksum
// and quarantines the skipped range. The CRC covers everything after
// itself, so a single flipped bit anywhere in flags/seq/lengths/key/
// value is detected.
const (
	magic0, magic1 = 0x7C, 0xB1
	headerSize     = 23

	// Length sanity caps: a corrupted length field must not drive a
	// multi-gigabyte allocation during recovery.
	MaxKeyLen = 64 << 10
	MaxValLen = 16 << 20

	flagTombstone = 0x01
)

// Decode/scan error classes. ErrTruncated means the buffer ends before
// the record does (a torn tail if nothing valid follows); the others all
// mean corruption at this offset.
var (
	ErrTruncated = errors.New("spill: record truncated")
	ErrBadMagic  = errors.New("spill: bad record magic")
	ErrCorrupt   = errors.New("spill: corrupt record header")
	ErrChecksum  = errors.New("spill: record checksum mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one decoded log entry.
type Record struct {
	Seq       uint64
	Key       []byte
	Val       []byte
	Tombstone bool
}

// EncodedSize is the framed size of a record with the given key and
// value lengths.
func EncodedSize(keyLen, valLen int) int { return headerSize + keyLen + valLen }

// AppendRecord appends the framed encoding of r to dst and returns the
// extended slice.
func AppendRecord(dst []byte, r Record) []byte {
	start := len(dst)
	total := EncodedSize(len(r.Key), len(r.Val))
	dst = append(dst, make([]byte, total)...)
	b := dst[start:]
	b[0], b[1] = magic0, magic1
	var flags byte
	if r.Tombstone {
		flags |= flagTombstone
	}
	b[6] = flags
	binary.LittleEndian.PutUint64(b[7:], r.Seq)
	binary.LittleEndian.PutUint32(b[15:], uint32(len(r.Key)))
	binary.LittleEndian.PutUint32(b[19:], uint32(len(r.Val)))
	copy(b[headerSize:], r.Key)
	copy(b[headerSize+len(r.Key):], r.Val)
	binary.LittleEndian.PutUint32(b[2:], crc32.Checksum(b[6:total], castagnoli))
	return dst
}

// EncodeRecord returns the framed encoding of r.
func EncodeRecord(r Record) []byte { return AppendRecord(nil, r) }

// DecodeRecord decodes the record starting at data[0]. On success it
// returns the record (key and value aliasing data) and the framed size
// consumed. The error classes are documented above; callers decide
// whether a failure is a torn tail or corruption to resync past.
func DecodeRecord(data []byte) (Record, int, error) {
	if len(data) < 2 {
		return Record{}, 0, ErrTruncated
	}
	if data[0] != magic0 || data[1] != magic1 {
		return Record{}, 0, ErrBadMagic
	}
	if len(data) < headerSize {
		return Record{}, 0, ErrTruncated
	}
	keyLen := binary.LittleEndian.Uint32(data[15:])
	valLen := binary.LittleEndian.Uint32(data[19:])
	if keyLen > MaxKeyLen || valLen > MaxValLen {
		return Record{}, 0, ErrCorrupt
	}
	total := EncodedSize(int(keyLen), int(valLen))
	if len(data) < total {
		return Record{}, 0, ErrTruncated
	}
	if crc32.Checksum(data[6:total], castagnoli) != binary.LittleEndian.Uint32(data[2:]) {
		return Record{}, 0, ErrChecksum
	}
	r := Record{
		Seq:       binary.LittleEndian.Uint64(data[7:]),
		Key:       data[headerSize : headerSize+keyLen],
		Val:       data[headerSize+keyLen : total],
		Tombstone: data[6]&flagTombstone != 0,
	}
	return r, total, nil
}
