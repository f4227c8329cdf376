package jsonl_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hetarch/internal/jobs"
	"hetarch/internal/jsonl"
	"hetarch/internal/mc/checkpoint"
	"hetarch/internal/obs/ledger"
	"hetarch/internal/obs/recorder"
)

// One real line of each on-disk format built on this package.
var (
	recorderLine   = `{"type":"header","run_id":"01jabcdefghjkmnpqrstvwxyz0","tool":"hetarch","experiment":"fig9","scale":"quick","seed":7,"go_version":"go1.22.0","goos":"linux","goarch":"amd64","num_cpu":2,"workers":1,"started_at":"2024-01-01T00:00:00Z"}`
	ledgerLine     = `{"type":"run","run_id":"01jabcdefghjkmnpqrstvwxyz0","tool":"hetarch","experiment":"fig9","scale":"quick","seed":7,"started_at":"2024-01-01T00:00:00Z","status":"ok","metrics":{"shots":1000,"logical_errors":37},"artifacts":[{"kind":"recorder","path":"run.jsonl","sha256":"00","bytes":10}]}`
	journalLine    = `{"type":"job.submitted","job":{"id":"job-a","tenant":"default","spec":{"experiment":"fig9","scale":"quick","seed":1},"fingerprint":"ab","submitted_at":"2024-01-01T00:00:00Z"}}`
	checkpointMeta = `{"type":"checkpoint","tool":"fuzz","experiment":"unit","scale":"quick","seed":7,"shard_size":256}`
	checkpointLine = `{"type":"shard","run":0,"run_shots":2560,"run_seed":7,"shard_size":256,"shard":0,"shard_seed":7191089600892374487,"shots":256,"errors":53}`
)

func TestFileAppendCloseWriteAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	f, err := jsonl.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Path() != path {
		t.Fatalf("Path() = %q, want %q", f.Path(), path)
	}
	if err := f.Append(map[string]int{"n": 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := f.Append(1); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if got, _ := os.ReadFile(path); string(got) != "{\"n\":1}\n" {
		t.Fatalf("file = %q", got)
	}

	if err := jsonl.WriteAtomic(path, []byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "{}\n" {
		t.Fatalf("after WriteAtomic file = %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("WriteAtomic left its tmp file behind: %v", err)
	}
}

// FuzzLog drives the line discipline and every parser built on it with
// arbitrary existing file bytes: Split's framing contract, Open's heal
// followed by an Append, and the recorder, ledger, journal and checkpoint
// readers, none of which may panic.
func FuzzLog(f *testing.F) {
	for _, line := range []string{recorderLine, ledgerLine, journalLine, checkpointMeta + "\n" + checkpointLine} {
		f.Add([]byte(line + "\n"))
		f.Add([]byte(line))                             // complete record, newline lost
		f.Add([]byte(line + "\n" + line[:len(line)/2])) // torn mid-append
	}
	f.Add([]byte{})
	f.Add([]byte("\n\nnot json\n"))

	meta := checkpoint.NewMeta("fuzz", "unit", "quick", 7, 0)
	meta.GitRevision = ""
	f.Fuzz(func(t *testing.T, data []byte) {
		lines, torn := jsonl.Split(data)
		for _, l := range lines {
			if bytes.IndexByte(l, '\n') >= 0 {
				t.Fatalf("line %q contains a newline", l)
			}
		}
		tail := data[bytes.LastIndexByte(data, '\n')+1:]
		if want := len(tail) > 0 && !json.Valid(tail); torn != want {
			t.Fatalf("torn = %v with tail %q, want %v", torn, tail, want)
		}

		dir := t.TempDir()
		write := func(name string) string {
			p := filepath.Join(dir, name)
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return p
		}

		path := write("log.jsonl")
		lf, err := jsonl.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		v := map[string]int{"appended": len(data)}
		if err := lf.Append(v); err != nil {
			t.Fatal(err)
		}
		lf.Close()
		vline, _ := json.Marshal(v)
		want := lines
		if torn {
			want = append(want, tail)
		}
		want = append(want, vline)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		relines, retorn := jsonl.Split(got)
		if retorn || len(relines) != len(want) {
			t.Fatalf("after Open+Append: %d lines (torn %v), want %d untorn", len(relines), retorn, len(want))
		}
		for i := range want {
			if !bytes.Equal(relines[i], want[i]) {
				t.Fatalf("after Open+Append line %d = %q, want %q", i, relines[i], want[i])
			}
		}

		recorder.Read(bytes.NewReader(data))
		ledger.ReadFile(write("ledger.jsonl"))
		if j, _, err := jobs.OpenJournal(write("journal.jsonl")); err == nil {
			j.Close()
		}
		if cp, err := checkpoint.Open(write("checkpoint.jsonl"), meta); err == nil {
			cp.Close()
		}
	})
}
