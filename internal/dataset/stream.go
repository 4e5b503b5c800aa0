package dataset

import (
	"compress/flate"
	"compress/gzip"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Streaming CSV layer: record-at-a-time readers and writers with constant
// per-row memory, generic over the table descriptors in csv.go. ReadAll,
// WriteAll and the directory loaders are built on them; consumers that
// must scale past RAM (bbstats' one-pass overview) walk a directory's
// user table with EachUser.
//
// Readers reuse the csv.Reader record slice (ReuseRecord) and enforce the
// header's field count on every row; writers encode each record into a
// reusable scratch buffer with strconv.Append* — zero allocations per row
// in steady state — and emit exactly the bytes encoding/csv would, so the
// format is unchanged.

// rowWriter encodes one CSV record at a time into a reusable scratch
// buffer, flushing each completed row to the sink with a single Write. The
// first sink error is sticky and carries the 1-based row number (the header
// is row 1) at which it surfaced.
type rowWriter struct {
	w     io.Writer
	table string // "users", "switches", "plans" — error context
	buf   []byte
	n     int // fields appended to the current row
	row   int // rows already flushed (header included)
	err   error
}

func (w *rowWriter) sep() {
	if w.n > 0 {
		w.buf = append(w.buf, ',')
	}
	w.n++
}

// str appends a string field, quoting by encoding/csv's exact rules so the
// streamed bytes match what csv.Writer historically produced.
func (w *rowWriter) str(s string) {
	w.sep()
	if !fieldNeedsQuotes(s) {
		w.buf = append(w.buf, s...)
		return
	}
	w.buf = append(w.buf, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			w.buf = append(w.buf, '"', '"')
		} else {
			w.buf = append(w.buf, s[i])
		}
	}
	w.buf = append(w.buf, '"')
}

func (w *rowWriter) f64(v float64) {
	w.sep()
	w.buf = strconv.AppendFloat(w.buf, v, 'g', -1, 64)
}

func (w *rowWriter) i64(v int64) {
	w.sep()
	w.buf = strconv.AppendInt(w.buf, v, 10)
}

func (w *rowWriter) int(v int) { w.i64(int64(v)) }

func (w *rowWriter) bool(v bool) {
	w.sep()
	w.buf = strconv.AppendBool(w.buf, v)
}

// endRow terminates the record and writes it to the sink.
func (w *rowWriter) endRow() error {
	if w.err == nil {
		w.buf = append(w.buf, '\n')
		w.row++
		if _, err := w.w.Write(w.buf); err != nil {
			w.err = fmt.Errorf("dataset: %s row %d: %w", w.table, w.row, err)
		}
	}
	w.buf = w.buf[:0]
	w.n = 0
	return w.err
}

func (w *rowWriter) header(cols []string) error {
	for _, c := range cols {
		w.str(c)
	}
	return w.endRow()
}

// fieldNeedsQuotes mirrors encoding/csv's rules for Comma=',' and
// UseCRLF=false, so the streaming writer is byte-compatible with it.
func fieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` || strings.ContainsAny(field, ",\"\r\n") {
		return true
	}
	r1, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r1)
}

// Writer streams one table to CSV a record at a time with constant
// per-row memory. NewWriter writes the header; each Write emits one row.
// Errors are sticky and carry the row number.
type Writer[T Row] struct {
	t *table[T]
	w rowWriter
}

// NewWriter writes T's table header and returns the streaming writer.
func NewWriter[T Row](w io.Writer) (*Writer[T], error) {
	t := tableOf[T]()
	tw := &Writer[T]{t: t, w: rowWriter{w: w, table: t.name}}
	if err := tw.w.header(t.header); err != nil {
		return nil, err
	}
	return tw, nil
}

// Write appends one row.
func (w *Writer[T]) Write(v *T) error {
	w.t.encode(&w.w, v)
	return w.w.endRow()
}

// wrapReadErr converts a csv.Reader error into the typed *RowError every
// dataset load reports. Structural CSV faults (field count, quoting) carry
// the line the csv package recorded and are recoverable — the reader
// resumes at the next record. Transport faults (gzip corruption, a stream
// cut mid-record, any other I/O failure) are terminal: the rest of the
// file is unreadable.
func wrapReadErr(file string, err error) error {
	var re *RowError
	if errors.As(err, &re) {
		return err
	}
	var pe *csv.ParseError
	if errors.As(err, &pe) {
		return &RowError{File: file, Row: pe.Line, Class: FaultSyntax, Err: err}
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, gzip.ErrChecksum) || errors.Is(err, gzip.ErrHeader) {
		return &RowError{File: file, Class: FaultTruncated, Err: err}
	}
	var fe flate.CorruptInputError
	if errors.As(err, &fe) {
		return &RowError{File: file, Class: FaultTruncated, Err: err}
	}
	return &RowError{File: file, Class: FaultIO, Err: err}
}

// newStreamReader validates the header and returns a csv.Reader configured
// for record-at-a-time reading: the record slice is reused across rows and
// the header's field count is enforced on every subsequent row. Header
// faults are typed *RowError values anchored at row 1.
func newStreamReader(r io.Reader, file string, header []string) (*csv.Reader, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	hdr, err := cr.Read()
	if err == io.EOF {
		return nil, &RowError{File: file, Row: 1, Class: FaultTruncated, Err: errors.New("empty file (no header)")}
	}
	if err != nil {
		return nil, wrapReadErr(file, err)
	}
	if err := checkHeader(hdr, header); err != nil {
		return nil, &RowError{File: file, Row: 1, Class: FaultSyntax, Err: err}
	}
	cr.FieldsPerRecord = len(header)
	return cr, nil
}

// Reader iterates one table's CSV a record at a time with constant
// memory. Read fills the caller's record and returns io.EOF after the last
// row; every other error is a *RowError carrying the file, the 1-based row
// number (the header is row 1) and the fault class.
type Reader[T Row] struct {
	t    *table[T]
	cr   *csv.Reader
	p    parser // reused per row, so decoding allocates nothing
	file string
	row  int
}

// NewReader validates T's table header and returns the iterator. file
// (typically the path being read) is stamped onto every error.
func NewReader[T Row](r io.Reader, file string) (*Reader[T], error) {
	t := tableOf[T]()
	cr, err := newStreamReader(r, file, t.header)
	if err != nil {
		return nil, err
	}
	return &Reader[T]{t: t, cr: cr, file: file, row: 1}, nil
}

// Read parses the next record into v and holds it to the table's check.
// It returns io.EOF at end of stream, leaving v unspecified.
func (r *Reader[T]) Read(v *T) error {
	rec, err := r.cr.Read()
	if err != nil {
		if err == io.EOF {
			return err
		}
		err = wrapReadErr(r.file, err)
		var re *RowError
		if errors.As(err, &re) && re.Row > 0 {
			r.row = re.Row
		}
		return err
	}
	// FieldPos gives the record's physical start line, so numbering stays
	// exact even after a structurally bad row was skipped.
	r.row, _ = r.cr.FieldPos(0)
	r.p = parser{rec: rec}
	r.t.decode(&r.p, v)
	if r.p.err != nil {
		return &RowError{File: r.file, Row: r.row, Class: FaultParse, Err: r.p.err}
	}
	if err := r.t.check(v); err != nil {
		return &RowError{File: r.file, Row: r.row, Class: FaultDomain, Err: err}
	}
	return nil
}

// ReadAll parses a whole table strictly; file names it in errors.
func ReadAll[T Row](r io.Reader, file string) ([]T, error) {
	var out []T
	err := readRows(r, file, strictQuarantine(file), func(v *T, _ int) error {
		out = append(out, *v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
