package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
)

// openTestStore opens a store in dir and registers cleanup.
func openTestStore(t *testing.T, dir string) (*diskStore, []storedEntry) {
	t.Helper()
	st, entries, err := openStore(dir, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.close() })
	return st, entries
}

func entryKeys(entries []storedEntry) []string {
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.key
	}
	return keys
}

func TestStoreAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, entries := openTestStore(t, dir)
	if len(entries) != 0 {
		t.Fatalf("fresh store restored %d entries", len(entries))
	}
	payloads := map[string][]byte{
		"k1": []byte("payload one"),
		"k2": bytes.Repeat([]byte{0xAB}, 1024),
		"k3": {}, // empty payloads are legal
	}
	for _, k := range []string{"k1", "k2", "k3"} {
		if err := st.append(k, payloads[k]); err != nil {
			t.Fatal(err)
		}
	}
	// Re-append k1: the later record must win and refresh replay order.
	if err := st.append("k1", payloads["k1"]); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}

	st2, entries2 := openTestStore(t, dir)
	got := entryKeys(entries2)
	want := []string{"k2", "k3", "k1"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("replay order %v, want %v", got, want)
	}
	for _, e := range entries2 {
		if !bytes.Equal(e.payload, payloads[e.key]) {
			t.Errorf("%s payload corrupted", e.key)
		}
		if sha256.Sum256(e.payload) != e.sum {
			t.Errorf("%s sum does not verify", e.key)
		}
	}
	ss := st2.statsSnapshot()
	if ss.RestoredEntries != 3 || ss.RecordsSkipped != 0 || ss.TailTruncations != 0 {
		t.Errorf("stats %+v, want 3 restored, nothing skipped", ss)
	}
	if ss.BytesReplayed == 0 {
		t.Error("bytes replayed not counted")
	}
}

// TestStoreTornTailTruncated simulates a SIGKILL mid-append: a partial
// record at the log tail must be dropped and physically truncated so the
// next append starts a clean frame.
func TestStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	if err := st.append("good1", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := st.append("good2", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}

	logPath := filepath.Join(dir, logFileName)
	full := encodeRecord("torn", bytes.Repeat([]byte{7}, 400))
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeBefore := fileSize(t, logPath)

	st2, entries := openTestStore(t, dir)
	if got := entryKeys(entries); len(got) != 2 || got[0] != "good1" || got[1] != "good2" {
		t.Fatalf("recovered %v, want [good1 good2]", got)
	}
	ss := st2.statsSnapshot()
	if ss.TailTruncations != 1 {
		t.Errorf("tail truncations = %d, want 1", ss.TailTruncations)
	}
	if after := fileSize(t, logPath); after >= sizeBefore {
		t.Errorf("log not truncated: %d -> %d bytes", sizeBefore, after)
	}

	// The store must be appendable at the truncated offset and the new
	// record must survive another reopen.
	if err := st2.append("good3", []byte("three")); err != nil {
		t.Fatal(err)
	}
	if err := st2.close(); err != nil {
		t.Fatal(err)
	}
	_, entries3 := openTestStore(t, dir)
	if got := entryKeys(entries3); len(got) != 3 || got[2] != "good3" {
		t.Fatalf("after torn-tail recovery + append, recovered %v", got)
	}
}

// TestStoreCorruptFrameDropsTail: a bit flip inside a record body breaks
// its CRC; that record and everything after it are dropped, earlier
// records survive.
func TestStoreCorruptFrameDropsTail(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	for _, k := range []string{"a", "b", "c"} {
		if err := st.append(k, bytes.Repeat([]byte(k), 64)); err != nil {
			t.Fatal(err)
		}
	}
	recLen := int64(len(encodeRecord("a", bytes.Repeat([]byte("a"), 64))))
	if err := st.close(); err != nil {
		t.Fatal(err)
	}

	logPath := filepath.Join(dir, logFileName)
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the middle record ("b").
	raw[int64(len(storeMagic))+recLen+recordHeader+recordFixed+3] ^= 0xFF
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, entries := openTestStore(t, dir)
	if got := entryKeys(entries); len(got) != 1 || got[0] != "a" {
		t.Fatalf("recovered %v, want [a]", got)
	}
	if ss := st2.statsSnapshot(); ss.TailTruncations != 1 {
		t.Errorf("stats %+v, want one tail truncation", ss)
	}
}

// TestStoreBadSumSkipsRecord: a record whose CRC holds but whose payload
// fails its SHA-256 (a deliberately consistent corruption) is skipped
// individually; later records still load.
func TestStoreBadSumSkipsRecord(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	if err := st.append("a", []byte("aaa")); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}

	// Hand-build a record with a wrong sum but a valid CRC, then a good one.
	bad := encodeRecord("evil", []byte("payload"))
	body := bad[recordHeader:]
	body[2] ^= 0xFF // corrupt the stored sum
	binary.LittleEndian.PutUint32(bad, crc32.ChecksumIEEE(body))
	good := encodeRecord("z", []byte("zzz"))
	logPath := filepath.Join(dir, logFileName)
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(bad)
	f.Write(good)
	f.Close()

	st2, entries := openTestStore(t, dir)
	if got := entryKeys(entries); len(got) != 2 || got[0] != "a" || got[1] != "z" {
		t.Fatalf("recovered %v, want [a z]", got)
	}
	if ss := st2.statsSnapshot(); ss.RecordsSkipped != 1 {
		t.Errorf("records skipped = %d, want 1", ss.RecordsSkipped)
	}
}

func TestStoreCompactReplacesSnapshotAndResetsLog(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	for _, k := range []string{"a", "b", "c", "d"} {
		if err := st.append(k, bytes.Repeat([]byte(k), 256)); err != nil {
			t.Fatal(err)
		}
	}
	// Compact down to two survivors, as after LRU eviction.
	live := []storedEntry{
		mkEntry("c", bytes.Repeat([]byte("c"), 256)),
		mkEntry("d", bytes.Repeat([]byte("d"), 256)),
	}
	if err := st.compact(func() []storedEntry { return live }); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, filepath.Join(dir, logFileName)); got != int64(len(storeMagic)) {
		t.Errorf("log size after compact = %d, want %d (header only)", got, len(storeMagic))
	}
	if _, err := os.Stat(filepath.Join(dir, snapFileName+".tmp")); !os.IsNotExist(err) {
		t.Error("snapshot temp file left behind")
	}
	// Appends after compaction land in the fresh log.
	if err := st.append("e", []byte("eee")); err != nil {
		t.Fatal(err)
	}
	ss := st.statsSnapshot()
	if ss.Compactions != 1 || ss.SnapshotBytes == 0 {
		t.Errorf("stats %+v, want one compaction with a non-empty snapshot", ss)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}

	_, entries := openTestStore(t, dir)
	if got := entryKeys(entries); len(got) != 3 || got[0] != "c" || got[1] != "d" || got[2] != "e" {
		t.Fatalf("recovered %v, want [c d e]", got)
	}
}

func TestStoreNeedCompactPolicy(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	st.compactMinBytes = 512
	st.compactRatio = 2

	if st.needCompact() {
		t.Error("fresh store wants compaction")
	}
	if err := st.append("k", bytes.Repeat([]byte{1}, 600)); err != nil {
		t.Fatal(err)
	}
	if !st.needCompact() {
		t.Error("log above min bytes with no snapshot should compact")
	}
	if err := st.compact(func() []storedEntry {
		return []storedEntry{mkEntry("k", bytes.Repeat([]byte{1}, 600))}
	}); err != nil {
		t.Fatal(err)
	}
	if st.needCompact() {
		t.Error("just-compacted store wants compaction")
	}
	// The log must now exceed ratio * snapshot before compacting again.
	if err := st.append("k2", bytes.Repeat([]byte{2}, 700)); err != nil {
		t.Fatal(err)
	}
	if st.needCompact() {
		t.Error("log smaller than ratio*snapshot should not compact")
	}
}

// TestStoreBadMagicIgnored: a log from some other program (or a zeroed
// file) is ignored and rewritten, not trusted.
func TestStoreBadMagicIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logFileName), []byte("not a cache log at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, entries := openTestStore(t, dir)
	if len(entries) != 0 {
		t.Fatalf("recovered %d entries from garbage", len(entries))
	}
	if err := st.append("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	_, entries2 := openTestStore(t, dir)
	if len(entries2) != 1 || entries2[0].key != "k" {
		t.Fatalf("recovered %v after garbage reset", entryKeys(entries2))
	}
}

func mkEntry(key string, payload []byte) storedEntry {
	return storedEntry{key: key, payload: payload, sum: sha256.Sum256(payload)}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// faultyLog wraps the store's log file and fails on cue: a short write
// that stores k bytes and then reports ENOSPC, a failing Sync, and a
// failing Truncate.
type faultyLog struct {
	logFile
	shortWrite   int // >0: the next Write stores this many bytes, then fails
	failSync     bool
	failTruncate bool
}

func (f *faultyLog) Write(p []byte) (int, error) {
	if f.shortWrite > 0 {
		n, _ := f.logFile.Write(p[:min(f.shortWrite, len(p))])
		f.shortWrite = 0
		return n, syscall.ENOSPC
	}
	return f.logFile.Write(p)
}

func (f *faultyLog) Sync() error {
	if f.failSync {
		return syscall.EIO
	}
	return f.logFile.Sync()
}

func (f *faultyLog) Truncate(size int64) error {
	if f.failTruncate {
		return syscall.EIO
	}
	return f.logFile.Truncate(size)
}

// injectFaults swaps a faultyLog in for st's log file.
func injectFaults(st *diskStore) *faultyLog {
	f := &faultyLog{logFile: st.logFile}
	st.logFile = f
	return f
}

// TestStoreFailedAppendKeepsLaterRecords: a short write (ENOSPC part
// way through a frame) must not leave a torn frame in the log, or
// replay would stop there and drop every record appended after it.
func TestStoreFailedAppendKeepsLaterRecords(t *testing.T) {
	for _, k := range []int{1, recordHeader, recordHeader + 7} {
		dir := t.TempDir()
		st, _ := openTestStore(t, dir)
		faults := injectFaults(st)
		if err := st.append("before", []byte("acknowledged before the fault")); err != nil {
			t.Fatal(err)
		}
		faults.shortWrite = k
		if err := st.append("torn", []byte("this append runs out of space")); err == nil {
			t.Fatalf("k=%d: short write reported no error", k)
		}
		for _, key := range []string{"after1", "after2"} {
			if err := st.append(key, []byte("acknowledged after the fault")); err != nil {
				t.Fatalf("k=%d: append after a recovered fault: %v", k, err)
			}
		}
		if ss := st.statsSnapshot(); ss.AppendErrors != 1 {
			t.Errorf("k=%d: append_errors = %d, want 1", k, ss.AppendErrors)
		}
		if err := st.close(); err != nil {
			t.Fatal(err)
		}
		_, entries := openTestStore(t, dir)
		got := entryKeys(entries)
		if want := []string{"before", "after1", "after2"}; !slices.Equal(got, want) {
			t.Errorf("k=%d: reopen restored %v, want %v", k, got, want)
		}
	}
}

// TestStoreRefusesAppendsWhenRewindFails: if the torn frame cannot be
// cut back off, the store stops appending rather than acknowledge
// records that replay would drop, and counts each refusal.
func TestStoreRefusesAppendsWhenRewindFails(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	faults := injectFaults(st)
	if err := st.append("before", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	faults.shortWrite, faults.failTruncate = 5, true
	if err := st.append("torn", []byte("lost")); err == nil {
		t.Fatal("short write reported no error")
	}
	faults.failTruncate = false
	if err := st.append("refused", []byte("never acknowledged")); err == nil {
		t.Fatal("append after a failed rewind was acknowledged")
	}
	if ss := st.statsSnapshot(); ss.AppendErrors != 2 {
		t.Errorf("append_errors = %d, want 2 (the fault and the refusal)", ss.AppendErrors)
	}
	st.close()
	_, entries := openTestStore(t, dir)
	if got := entryKeys(entries); !slices.Equal(got, []string{"before"}) {
		t.Errorf("reopen restored %v, want [before]", got)
	}
}

// TestStoreSyncFailureReported: a failing fsync on close is reported,
// and every record appended before it is still restored.
func TestStoreSyncFailureReported(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	injectFaults(st).failSync = true
	for _, key := range []string{"a", "b"} {
		if err := st.append(key, []byte("payload "+key)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.close(); err == nil {
		t.Error("close hid a failed sync")
	}
	_, entries := openTestStore(t, dir)
	if got := entryKeys(entries); !slices.Equal(got, []string{"a", "b"}) {
		t.Errorf("reopen restored %v, want [a b]", got)
	}
}
