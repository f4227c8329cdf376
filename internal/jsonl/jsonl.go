// Package jsonl owns the crash-tolerant line discipline shared by every
// append-only JSONL file the repository writes: the flight recorder
// artifact (internal/obs/recorder), the run ledger (internal/obs/ledger),
// the daemon's job journal (internal/jobs) and the mc checkpoint
// (internal/mc/checkpoint).
//
// Every record is json.Marshal(v) followed by "\n", written with a single
// write(2) on an O_APPEND descriptor, so appends from concurrent writers
// interleave at line granularity and a process killed mid-write leaves at
// most one unterminated trailing line. Split drops that line when it does
// not parse (a complete record that merely lost its newline is kept), and
// Open heals the boundary so the next append starts on a fresh line.
// Whole-file replacements go through WriteAtomic's tmp+fsync+rename.
//
// The package only frames lines; record types, strictness about corrupt
// interior lines and fsync policy stay with each caller.
package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"hetarch/internal/obs/runlog"
)

var evHealed = runlog.Event("jsonl.heal")

// Split cuts data into its lines, without their newlines. An unterminated
// tail that is valid JSON is a complete record whose newline was lost and
// counts as a line; any other non-empty tail is the torn write of a killed
// process: it is dropped and reported as torn.
func Split(data []byte) (lines [][]byte, torn bool) {
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			if json.Valid(data) {
				return append(lines, data), false
			}
			return lines, true
		}
		lines = append(lines, data[:nl])
		data = data[nl+1:]
	}
	return lines, false
}

// File is an append-only JSONL file. Its methods are safe for concurrent
// use.
type File struct {
	mu sync.Mutex
	f  *os.File
}

// Open opens path for appending, creating it if absent. If the file does
// not end in a newline, one is appended first, so the next record starts
// on a line boundary: a torn record becomes an interior line of its own
// and a complete one keeps parsing. Only the last byte is read, so opening
// a large file costs O(1).
func Open(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := heal(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("heal %s: %w", path, err)
	}
	return &File{f: f}, nil
}

func heal(f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], st.Size()-1); err != nil || last[0] == '\n' {
		return err
	}
	runlog.L().Warn(evHealed, "path", f.Name(), "bytes", st.Size())
	_, err = f.Write([]byte{'\n'})
	return err
}

// Path returns the file path.
func (f *File) Path() string { return f.f.Name() }

// Append writes v as one line: a single marshal and a single write(2).
// It does not sync.
func (f *File) Append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err = f.f.Write(append(line, '\n'))
	return err
}

// Sync flushes appended records to stable storage.
func (f *File) Sync() error { return f.f.Sync() }

// Close releases the file handle. Closing twice is a no-op.
func (f *File) Close() error {
	if err := f.f.Close(); !errors.Is(err, os.ErrClosed) {
		return err
	}
	return nil
}

// WriteAtomic replaces path with data: it writes path.tmp, fsyncs it and
// renames it over path, so a reader sees either the old file or the new
// one, never a mix.
func WriteAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
