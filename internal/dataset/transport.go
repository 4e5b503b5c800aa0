package dataset

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// File transport: datasets travel as plain CSV or gzip-compressed CSV,
// selected by extension (.csv vs .csv.gz). Readers are buffered so the
// streaming decoders never issue tiny syscalls.

// gzipFile closes the gzip stream and the underlying file as one handle.
type gzipFile struct {
	*gzip.Reader
	fp *os.File
}

func (g *gzipFile) Close() error {
	zerr := g.Reader.Close()
	ferr := g.fp.Close()
	if zerr != nil {
		return zerr
	}
	return ferr
}

// openPath opens a dataset file for streaming reads, transparently
// decompressing when the name ends in .gz.
func openPath(path string) (io.ReadCloser, error) {
	fp, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return fp, nil
	}
	zr, err := gzip.NewReader(bufio.NewReaderSize(fp, 1<<16))
	if err != nil {
		fp.Close()
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return &gzipFile{Reader: zr, fp: fp}, nil
}

// tablePath resolves table file base under dir: the plain file when it
// exists, else its .gz variant, so a directory written with
// SaveOptions.Gzip loads with the same call as a plain one. When neither
// exists, ok is false and path is the plain name — what SaveDir writes,
// and what opening it then reports as missing. A stat failure other than
// absence counts as present, so opening the file surfaces the real error.
func tablePath(dir, base string) (path string, ok bool) {
	plain := filepath.Join(dir, base)
	for _, p := range []string{plain, plain + ".gz"} {
		if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
			return p, true
		}
	}
	return plain, false
}
