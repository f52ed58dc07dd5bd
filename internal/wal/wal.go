// Package wal is the one durable log behind the campaign journal, the job
// database and the results catalog.  A log holds one record per line,
// framed as
//
//	{"crc":<CRC-32C of rec>,"rec":<rec>}
//
// where rec is the record as json.Marshal renders it, so a bit flip that
// still parses as JSON is caught.  Append fsyncs each record before
// returning; Replay reads a log back under an explicit damage Policy;
// Rewrite compacts it.  The contract every store inherits: a typed error
// or byte-identical records, never silent loss.
package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// Policy is what Replay does with a damaged line that is not the last one.
// A damaged last line is the torn tail of a crash mid-append — that record
// was never acknowledged — so both policies drop it and count it.
type Policy int

const (
	// FailInterior refuses interior damage with ErrCorrupt naming the file
	// and line: history was corrupted, and the store cannot recompute what
	// it lost (catalog, job database).
	FailInterior Policy = iota
	// SkipInterior drops and counts interior damage: the store recomputes
	// whatever it lost (campaign shards).
	SkipInterior
)

var (
	// ErrCorrupt reports damage before the last line of a log replayed
	// under FailInterior.
	ErrCorrupt = errors.New("wal: log corrupt")
	// ErrDamaged is returned, wrapped, by a Replay callback to reject a
	// record that passed the frame check but fails the store's own checks.
	// Replay then treats the line as damaged under its policy; any other
	// callback error aborts the replay.
	ErrDamaged = errors.New("wal: damaged record")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	framePrefix = `{"crc":`
	frameRec    = `,"rec":`
)

// appendFrame appends the framed line for rec, newline included, to dst.
// For rec from json.Marshal the bytes equal json.Marshal of a {crc, rec}
// struct.
func appendFrame(dst, rec []byte) []byte {
	dst = append(dst, framePrefix...)
	dst = strconv.AppendUint(dst, uint64(crc32.Checksum(rec, castagnoli)), 10)
	dst = append(dst, frameRec...)
	dst = append(dst, rec...)
	return append(dst, '}', '\n')
}

// unframe checks one line's frame and checksum and returns its record.
func unframe(line []byte) ([]byte, error) {
	rest, ok := bytes.CutPrefix(line, []byte(framePrefix))
	comma := bytes.IndexByte(rest, ',')
	if !ok || comma < 0 {
		return nil, errors.New("no frame")
	}
	stored, err := strconv.ParseUint(string(rest[:comma]), 10, 32)
	if err != nil {
		return nil, fmt.Errorf("bad crc: %v", err)
	}
	rec, ok := bytes.CutPrefix(rest[comma:], []byte(frameRec))
	if ok {
		rec, ok = bytes.CutSuffix(rec, []byte("}"))
	}
	if !ok || len(rec) == 0 {
		return nil, errors.New("no frame")
	}
	if got := crc32.Checksum(rec, castagnoli); uint32(stored) != got {
		return nil, fmt.Errorf("crc mismatch (stored %08x, computed %08x)", stored, got)
	}
	return rec, nil
}

// Replay reads the log at path and calls fn with each intact record, in
// file order.  A missing file is an empty log.  A line is damaged when its
// frame or checksum is bad or when fn rejects it with ErrDamaged; Replay
// returns how many damaged lines it dropped.  Errors name the file and the
// 1-based line.  Replay only reads: it never compacts, so it is safe on a
// log another process is appending to, where a half-written last line
// simply does not count yet.  Lines have no length limit.
func Replay(path string, policy Policy, fn func(rec []byte) error) (dropped int, err error) {
	return replayFile(path, policy, false, fn)
}

// ReplayLegacy is Replay for a log that may predate the frame.  The format
// is decided once per file: when no line carries the frame, every line is
// passed to fn whole, with no checksum to check; otherwise the file is
// replayed exactly as by Replay, so a damaged framed line is never read as
// a legacy one.  The caller rewrites the log framed afterwards.
func ReplayLegacy(path string, policy Policy, fn func(rec []byte) error) (dropped int, err error) {
	return replayFile(path, policy, true, fn)
}

func replayFile(path string, policy Policy, legacy bool, fn func([]byte) error) (int, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: replay: %w", err)
	}
	unwrap := unframe
	if legacy && !bytes.HasPrefix(raw, []byte(framePrefix)) && !bytes.Contains(raw, []byte("\n"+framePrefix)) {
		unwrap = func(line []byte) ([]byte, error) { return line, nil }
	}
	return replay(raw, path, policy, unwrap, fn)
}

func replay(raw []byte, path string, policy Policy, unwrap func([]byte) ([]byte, error), fn func([]byte) error) (dropped int, err error) {
	// Trailing newlines are the terminator of the last line, not lines.
	raw = bytes.TrimRight(raw, "\n")
	for n := 1; len(raw) > 0; n++ {
		line, rest, interior := bytes.Cut(raw, []byte{'\n'})
		raw = rest
		rec, err := unwrap(line)
		if err == nil {
			if err = fn(rec); err != nil && !errors.Is(err, ErrDamaged) {
				return dropped, fmt.Errorf("%s line %d: %w", path, n, err)
			}
		}
		if err == nil {
			continue
		}
		if interior && policy == FailInterior {
			return dropped, fmt.Errorf("%w: line %d of %s: %v", ErrCorrupt, n, path, err)
		}
		dropped++
	}
	return dropped, nil
}

// file is what a Log writes through: *os.File, or a fault-injecting
// wrapper in this package's tests.
type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Log is the append handle on one log file.  It is safe for concurrent
// use, but a file must have only one Log appending to it at a time.
type Log struct {
	mu   sync.Mutex
	path string
	f    file  // nil once closed
	size int64 // end of the last acknowledged line
	err  error // first failed write or sync; refuses later appends
}

// Open opens (creating it if needed) the log at path for appending.
func Open(path string) (*Log, error) {
	l := &Log{path: path}
	if err := l.open(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Log) open() error {
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: open: %w", err)
	}
	l.f, l.size, l.err = f, st.Size(), nil
	return nil
}

// Append writes rec's JSON as one framed line and fsyncs it: a nil return
// means rec is on disk.  After a failed write or sync the log refuses
// every later Append until it is reopened (or rewritten), so no
// acknowledged line can land after a torn one; the failed line's bytes are
// truncated away where the file system allows, so a reopen finds only
// acknowledged records.
func (l *Log) Append(rec any) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("wal: append to %s: %w", l.path, err)
	}
	line := appendFrame(nil, blob)
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.f == nil:
		return fmt.Errorf("wal: append to %s: log closed", l.path)
	case l.err != nil:
		return fmt.Errorf("wal: append to %s refused after an earlier failure: %w", l.path, l.err)
	}
	_, err = l.f.Write(line)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.err = err
		// Best effort: if the truncate fails too, the refusal above still
		// keeps the unacknowledged bytes last in the file.
		_ = l.f.Truncate(l.size)
		return fmt.Errorf("wal: append to %s: %w", l.path, err)
	}
	l.size += int64(len(line))
	return nil
}

// Rewrite atomically replaces the log's contents with recs' JSON, framed,
// in order — compaction — and reopens the append handle on the new file.
// Since the file then holds exactly recs, this also lifts the refusal left
// by an earlier failed Append.
func (l *Log) Rewrite(recs []any) error {
	var buf []byte
	for _, rec := range recs {
		blob, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("wal: rewrite %s: %w", l.path, err)
		}
		buf = appendFrame(buf, blob)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: rewrite %s: log closed", l.path)
	}
	if err := WriteFileAtomic(l.path, buf); err != nil {
		return err
	}
	// The old handle points at the replaced file; nothing it holds is
	// needed any more.
	_ = l.f.Close()
	l.f = nil
	return l.open()
}

// Close releases the append handle; later Appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// WriteFileAtomic publishes data at path crash-safely: it writes a temp
// file in the same directory, fsyncs it, renames it over path and fsyncs
// the directory.  Any failure, the directory fsync included, is returned.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("wal: write %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // fails harmlessly once renamed
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	var d *os.File
	if err == nil {
		d, err = os.Open(dir)
	}
	if err == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("wal: write %s: %w", path, err)
	}
	return nil
}
