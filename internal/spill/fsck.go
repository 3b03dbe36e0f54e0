package spill

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// RecoveryReport describes one recovery or fsck pass over a spill
// directory. All counts are deterministic functions of the on-disk
// bytes; DurationNs is wall clock and feeds metrics only — keep it out
// of anything golden-tested.
type RecoveryReport struct {
	Segments           int    `json:"segments"`
	HintLoads          int    `json:"hint_loads"`           // sealed segments recovered via a valid hint
	RecordsScanned     int    `json:"records_scanned"`      // records decoded from segment scans
	HintEntries        int    `json:"hint_entries"`         // keydir entries loaded from hints
	LiveKeys           int    `json:"live_keys"`            // keydir size after recovery
	TornBytesTruncated int64  `json:"torn_bytes_truncated"` // torn tail bytes removed (or flagged by Fsck)
	QuarantinedRecords int    `json:"quarantined_records"`  // corrupt ranges skipped by resync
	QuarantinedBytes   int64  `json:"quarantined_bytes"`
	MaxSeq             uint64 `json:"max_seq"`
	DurationNs         int64  `json:"duration_ns"`
}

// Clean reports whether the pass found nothing to repair.
func (r *RecoveryReport) Clean() bool {
	return r.TornBytesTruncated == 0 && r.QuarantinedRecords == 0
}

// String renders the report's deterministic fields.
func (r *RecoveryReport) String() string {
	return fmt.Sprintf("segments=%d hints=%d scanned=%d live=%d torn_bytes=%d quarantined=%d(%dB) max_seq=%d",
		r.Segments, r.HintLoads, r.RecordsScanned, r.LiveKeys,
		r.TornBytesTruncated, r.QuarantinedRecords, r.QuarantinedBytes, r.MaxSeq)
}

// QuarantineDir is the subdirectory recovery copies corrupt ranges into.
const QuarantineDir = "quarantine"

// recover rebuilds the keydir from the directory's segments, repairing
// as it goes (truncating torn tails, quarantining corrupt ranges,
// rebuilding missing hints is deliberately not done — hints regenerate
// at the next rotation). It leaves d.active open on the last segment.
func (d *Dir) recover() (*RecoveryReport, error) {
	start := time.Now()
	rep := &RecoveryReport{}
	ids, err := segmentIDs(d.opts.Dir)
	if err != nil {
		return nil, err
	}
	d.tombs = map[string]hintEntry{}
	if len(ids) == 0 {
		// Fresh tier: one empty active segment.
		d.activeID = 1
		f, err := os.OpenFile(d.segPath(1), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, fmt.Errorf("spill: %w", err)
		}
		d.active = f
		rep.Segments = 1
		rep.DurationNs = time.Since(start).Nanoseconds()
		return rep, nil
	}
	rep.Segments = len(ids)
	for i, id := range ids {
		last := i == len(ids)-1
		if !last {
			if hes, ok := loadHint(d.hintPath(id)); ok {
				rep.HintLoads++
				rep.HintEntries += len(hes)
				for _, he := range hes {
					// size 0 marks a tombstone carried by the hint.
					d.applyEntry(he.key, entry{seg: id, off: he.off, size: he.size, seq: he.seq}, he.size == 0, rep)
				}
				continue
			}
		}
		if last {
			// Scan tombstones of the segment staying active land in
			// d.tombs so its eventual hint carries them.
			d.tombs = map[string]hintEntry{}
		}
		size, err := d.scanSegment(id, last, true, rep)
		if err != nil {
			return nil, err
		}
		if last {
			f, err := os.OpenFile(d.segPath(id), os.O_RDWR, 0o644)
			if err != nil {
				return nil, fmt.Errorf("spill: %w", err)
			}
			d.active = f
			d.activeID = id
			d.activeSize = size
		}
	}
	d.seq = rep.MaxSeq
	rep.LiveKeys = len(d.keydir)
	rep.DurationNs = time.Since(start).Nanoseconds()
	return rep, nil
}

// applyEntry folds one record reference into the keydir, newest seq
// winning (scan order already goes oldest→newest; the seq comparison
// makes the merge order-independent and is what hint+scan mixes rely
// on).
func (d *Dir) applyEntry(key []byte, e entry, tombstone bool, rep *RecoveryReport) {
	if e.seq > rep.MaxSeq {
		rep.MaxSeq = e.seq
	}
	if old, ok := d.keydir[string(key)]; ok && old.seq >= e.seq {
		return
	}
	if tombstone {
		delete(d.keydir, string(key))
		if d.tombs != nil {
			d.tombs[string(key)] = hintEntry{key: append([]byte(nil), key...), off: e.off, seq: e.seq}
		}
		return
	}
	d.keydir[string(key)] = e
}

// scanSegment decodes segment id record by record, folding live records
// into the keydir. With repair=true it truncates torn tails and copies
// corrupt ranges into the quarantine directory; with repair=false (the
// read-only Fsck path) it only counts them. Returns the valid prefix
// length.
func (d *Dir) scanSegment(id uint32, last, repair bool, rep *RecoveryReport) (int64, error) {
	path := d.segPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("spill: %w", err)
	}
	validEnd, torn, err := d.scanBytes(data, id, last, repair, rep)
	if err != nil {
		return 0, err
	}
	if repair && torn > 0 {
		if err := os.Truncate(path, validEnd); err != nil {
			return 0, fmt.Errorf("spill: truncating torn tail of %s: %w", path, err)
		}
	}
	return validEnd, nil
}

// scanBytes is the scan core. It returns the offset the segment should
// end at (everything past it is torn) and the torn byte count.
func (d *Dir) scanBytes(data []byte, id uint32, last, repair bool, rep *RecoveryReport) (validEnd int64, torn int64, err error) {
	pos := 0
	for pos < len(data) {
		r, n, derr := DecodeRecord(data[pos:])
		if derr == nil {
			d.applyEntry(r.Key, entry{seg: id, off: int64(pos), size: uint32(n), seq: r.Seq}, r.Tombstone, rep)
			rep.RecordsScanned++
			pos += n
			continue
		}
		// Resync: find the next offset that decodes cleanly; the skipped
		// range is quarantined. If nothing decodes through EOF, the tail
		// is torn (truncate on the last segment) unless the failure here
		// was corruption of a complete record, which is quarantined too.
		next := resync(data, pos+1)
		if next < 0 {
			if derr == ErrTruncated {
				torn = int64(len(data) - pos)
				rep.TornBytesTruncated += torn
				return int64(pos), torn, nil
			}
			// Complete-but-corrupt tail: quarantine it, then cut it off
			// the last segment so appends don't extend garbage.
			if qerr := d.quarantine(data[pos:], id, pos, repair, rep); qerr != nil {
				return 0, 0, qerr
			}
			if last {
				torn = int64(len(data) - pos)
				return int64(pos), torn, nil
			}
			return int64(len(data)), 0, nil
		}
		if qerr := d.quarantine(data[pos:next], id, pos, repair, rep); qerr != nil {
			return 0, 0, qerr
		}
		pos = next
	}
	return int64(len(data)), 0, nil
}

// resync scans forward from pos for the next offset that decodes as a
// valid record (magic + sane lengths + checksum; the CRC makes a false
// positive vanishingly unlikely). Returns -1 when none exists.
func resync(data []byte, pos int) int {
	for ; pos+1 < len(data); pos++ {
		if data[pos] != magic0 || data[pos+1] != magic1 {
			continue
		}
		if _, _, err := DecodeRecord(data[pos:]); err == nil {
			return pos
		}
	}
	return -1
}

// quarantine copies a corrupt byte range aside (repair mode) and counts
// it. The file name is deterministic — <segment>-<offset>.bad — so
// re-running recovery over a still-corrupt directory is idempotent.
func (d *Dir) quarantine(bad []byte, id uint32, off int, repair bool, rep *RecoveryReport) error {
	rep.QuarantinedRecords++
	rep.QuarantinedBytes += int64(len(bad))
	if !repair {
		return nil
	}
	qdir := filepath.Join(d.opts.Dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	name := filepath.Join(qdir, fmt.Sprintf("%08d-%d.bad", id, off))
	if err := os.WriteFile(name, bad, 0o644); err != nil {
		return fmt.Errorf("spill: quarantining %s: %w", name, err)
	}
	return nil
}

// Fsck verifies the directory read-only: every segment is fully
// scanned and checksum-verified (hints are validated but never trusted
// in place of the scan), and the report counts what a repairing Open
// would truncate or quarantine. Nothing on disk is modified.
func Fsck(dir string) (*RecoveryReport, error) {
	start := time.Now()
	d := &Dir{opts: Options{Dir: dir}, keydir: map[string]entry{}}
	d.opts.fill()
	rep := &RecoveryReport{}
	ids, err := segmentIDs(dir)
	if err != nil {
		return nil, err
	}
	rep.Segments = len(ids)
	for i, id := range ids {
		last := i == len(ids)-1
		if !last {
			if hes, ok := loadHint(d.hintPath(id)); ok {
				rep.HintLoads++
				rep.HintEntries += len(hes)
			}
		}
		if _, err := d.scanSegment(id, last, false, rep); err != nil {
			return nil, err
		}
	}
	rep.LiveKeys = len(d.keydir)
	rep.DurationNs = time.Since(start).Nanoseconds()
	return rep, nil
}

// --- hint files ---
//
// A hint file is the sealed segment's live keydir slice, written as one
// checksummed blob so recovery can skip the full scan:
//
//	[0:4)  magic "SPHT"
//	[4:8)  entry count
//	[8:)   entries: seq u64 | off i64 | size u32 | keyLen u32 | key
//	[-4:)  CRC32C over bytes [0:len-4)
//
// Any validation failure simply falls back to scanning the segment.

var hintMagic = [4]byte{'S', 'P', 'H', 'T'}

type hintEntry struct {
	key  []byte
	off  int64
	size uint32
	seq  uint64
}

func encodeHint(hes []hintEntry) []byte {
	b := make([]byte, 8, 8+len(hes)*32)
	copy(b, hintMagic[:])
	binary.LittleEndian.PutUint32(b[4:], uint32(len(hes)))
	for _, he := range hes {
		var tmp [24]byte
		binary.LittleEndian.PutUint64(tmp[0:], he.seq)
		binary.LittleEndian.PutUint64(tmp[8:], uint64(he.off))
		binary.LittleEndian.PutUint32(tmp[16:], he.size)
		binary.LittleEndian.PutUint32(tmp[20:], uint32(len(he.key)))
		b = append(b, tmp[:]...)
		b = append(b, he.key...)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(b, castagnoli))
	return append(b, crc[:]...)
}

// loadHint parses and validates a hint file; ok=false on any problem.
func loadHint(path string) ([]hintEntry, bool) {
	b, err := os.ReadFile(path)
	if err != nil || len(b) < 12 || [4]byte(b[:4]) != hintMagic {
		return nil, false
	}
	body, crc := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, castagnoli) != crc {
		return nil, false
	}
	count := binary.LittleEndian.Uint32(b[4:])
	if int64(count) > int64(len(body))/24 {
		return nil, false
	}
	pos := 8
	hes := make([]hintEntry, 0, count)
	for i := uint32(0); i < count; i++ {
		if pos+24 > len(body) {
			return nil, false
		}
		he := hintEntry{
			seq:  binary.LittleEndian.Uint64(body[pos:]),
			off:  int64(binary.LittleEndian.Uint64(body[pos+8:])),
			size: binary.LittleEndian.Uint32(body[pos+16:]),
		}
		kl := int(binary.LittleEndian.Uint32(body[pos+20:]))
		pos += 24
		if kl <= 0 || kl > MaxKeyLen || pos+kl > len(body) {
			return nil, false
		}
		he.key = append([]byte(nil), body[pos:pos+kl]...)
		pos += kl
		hes = append(hes, he)
	}
	if pos != len(body) {
		return nil, false
	}
	return hes, true
}
