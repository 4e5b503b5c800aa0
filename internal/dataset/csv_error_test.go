package dataset

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// errWriter fails after n bytes, exercising the write-error paths.
type errWriter struct {
	n int
}

var errSink = errors.New("sink full")

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errSink
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errSink
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWritersSurfaceSinkErrors(t *testing.T) {
	d := sampleDataset()
	if err := WriteAll(&errWriter{}, d.Users); err == nil {
		t.Error("WriteAll must surface write failures (users)")
	}
	if err := WriteAll(&errWriter{n: 64}, d.Users); err == nil {
		t.Error("WriteAll must surface mid-stream failures (users)")
	}
	if err := WriteAll(&errWriter{}, d.Switches); err == nil {
		t.Error("WriteAll must surface write failures (switches)")
	}
	if err := WriteAll(&errWriter{}, d.Plans); err == nil {
		t.Error("WriteAll must surface write failures (plans)")
	}
}

// truncReader returns a header then cuts off mid-record.
func TestReadersRejectTruncation(t *testing.T) {
	var b strings.Builder
	if err := WriteAll(&writerTo{&b}, sampleDataset().Users); err != nil {
		t.Fatal(err)
	}
	full := b.String()
	// Chop inside the final record: the CSV reader sees a short row.
	cut := full[:len(full)-10]
	if _, err := ReadAll[User](strings.NewReader(cut), "users"); err == nil {
		t.Error("truncated users CSV should fail")
	}
}

type writerTo struct{ b *strings.Builder }

func (w *writerTo) Write(p []byte) (int, error) { return w.b.Write(p) }

var _ io.Writer = (*writerTo)(nil)

func TestSaveDirUnwritable(t *testing.T) {
	// A path through an existing FILE cannot be created as a directory.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := sampleDataset().SaveDir(dir); err != nil {
		t.Fatalf("control save failed: %v", err)
	}
	if err := writeFile(blocker, "x"); err != nil {
		t.Fatal(err)
	}
	if err := sampleDataset().SaveDir(filepath.Join(blocker, "sub")); err == nil {
		t.Error("SaveDir through a file should fail")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestLoadDirRejectsTruncatedGzip chops a compressed table mid-stream: the
// gzip checksum can never validate, and LoadDir must report it rather than
// return a silently short dataset.
func TestLoadDirRejectsTruncatedGzip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "gz")
	d := sampleDataset()
	for _, mbps := range []float64{1, 2, 4, 8, 16} {
		d.Plans = append(d.Plans,
			planFor("US", mbps, 20+0.55*(mbps-1)),
			planFor("JP", mbps, 21+0.08*(mbps-1)),
		)
	}
	if err := d.SaveDirWith(dir, SaveOptions{Gzip: true}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "users.csv.gz")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil {
		t.Error("truncated gzip stream should fail to load")
	}
}

// TestReadersRejectTrailingGarbage covers both flavors of a corrupted row:
// an extra field (the header's count is enforced on every record) and
// garbage appended to a numeric field.
func TestReadersRejectTrailingGarbage(t *testing.T) {
	var b strings.Builder
	if err := WriteAll(&writerTo{&b}, sampleDataset().Users); err != nil {
		t.Fatal(err)
	}
	full := b.String()

	lines := strings.SplitAfter(full, "\n")
	extraField := strings.TrimSuffix(lines[1], "\n") + ",garbage\n"
	if _, err := ReadAll[User](strings.NewReader(lines[0]+extraField), "users"); err == nil {
		t.Error("row with an extra trailing field should fail")
	}

	garbled := strings.Replace(full, "true", "truex", 1)
	if _, err := ReadAll[User](strings.NewReader(garbled), "users"); err == nil {
		t.Error("field with trailing garbage should fail")
	}
}

// TestReadersRejectReorderedHeader: all columns present but permuted must
// be refused — silently accepting it would transpose every field.
func TestReadersRejectReorderedHeader(t *testing.T) {
	var b strings.Builder
	if err := WriteAll(&writerTo{&b}, sampleDataset().Users); err != nil {
		t.Fatal(err)
	}
	full := b.String()
	swapped := strings.Replace(full, "id,country", "country,id", 1)
	if swapped == full {
		t.Fatal("header swap did not apply")
	}
	if _, err := ReadAll[User](strings.NewReader(swapped), "users"); err == nil {
		t.Error("reordered header should fail")
	}
	if _, err := NewReader[User](strings.NewReader(swapped), "users"); err == nil {
		t.Error("streaming reader must reject a reordered header too")
	}
}

// TestWriteTableRemovesPartialFile: a failure mid-write must not leave a
// truncated CSV behind for a later load to trip over.
func TestWriteTableRemovesPartialFile(t *testing.T) {
	for _, gz := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "x.csv")
		err := writeTableCtx(context.Background(), path, gz, func(w io.Writer) error {
			if _, err := w.Write([]byte("id,country\npartial")); err != nil {
				return err
			}
			return errSink
		})
		if !errors.Is(err, errSink) {
			t.Fatalf("gz=%v: writeTable returned %v, want the write error", gz, err)
		}
		if _, serr := os.Stat(path); !os.IsNotExist(serr) {
			t.Errorf("gz=%v: partial file left behind (stat: %v)", gz, serr)
		}
	}
}

func TestWriteTableChecksCloseOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ok.csv")
	if err := writeTableCtx(context.Background(), path, false, func(w io.Writer) error {
		_, err := w.Write([]byte("hello\n"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "hello\n" {
		t.Errorf("writeTable flushed %q", raw)
	}
}
