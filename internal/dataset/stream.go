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

	"github.com/nwca/broadband/internal/market"
)

// Streaming CSV layer: record-at-a-time readers and writers with constant
// per-row memory. The slice-based API (ReadUsers/WriteUsers and friends) is
// a thin wrapper over these; consumers that must scale past RAM (bbstats'
// one-pass overview) drain a UserSource directly.
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

// Per-record encoders. Field order is the single source of truth shared
// with the decoders below; the slice writers and the sharded parallel
// encoder both go through these.

func encodeUser(w *rowWriter, u *User) error {
	w.i64(u.ID)
	w.str(u.Country)
	w.int(int(u.Vantage))
	w.int(u.Year)
	w.str(u.ISP)
	w.str(u.NetworkKey)
	w.f64(u.PlanDown.Mbps())
	w.f64(u.PlanUp.Mbps())
	w.f64(u.PlanPrice.Dollars())
	w.int(int(u.PlanTech))
	w.f64(u.PlanCap.GB())
	w.f64(u.Capacity.Mbps())
	w.f64(u.UpCapacity.Mbps())
	w.f64(u.RTT * 1000)
	w.f64(u.WebRTT * 1000)
	w.f64(u.Loss.Percent())
	w.f64(u.Usage.Mean.Mbps())
	w.f64(u.Usage.Peak.Mbps())
	w.f64(u.Usage.MeanNoBT.Mbps())
	w.f64(u.Usage.PeakNoBT.Mbps())
	w.bool(u.UsesBT)
	w.int(int(u.Archetype))
	w.f64(u.AccessPrice.Dollars())
	w.f64(float64(u.UpgradeCost))
	return w.endRow()
}

func encodeSwitch(w *rowWriter, s *Switch) error {
	w.i64(s.UserID)
	w.str(s.Country)
	w.str(s.FromNet)
	w.str(s.ToNet)
	w.f64(s.FromDown.Mbps())
	w.f64(s.ToDown.Mbps())
	w.f64(s.Before.Mean.Mbps())
	w.f64(s.Before.Peak.Mbps())
	w.f64(s.Before.MeanNoBT.Mbps())
	w.f64(s.Before.PeakNoBT.Mbps())
	w.f64(s.After.Mean.Mbps())
	w.f64(s.After.Peak.Mbps())
	w.f64(s.After.MeanNoBT.Mbps())
	w.f64(s.After.PeakNoBT.Mbps())
	return w.endRow()
}

func encodePlan(w *rowWriter, p *market.Plan) error {
	w.str(p.Country)
	w.str(p.ISP)
	w.f64(p.Down.Mbps())
	w.f64(p.Up.Mbps())
	w.f64(p.PriceLocal)
	w.f64(p.PriceUSD.Dollars())
	w.f64(p.Cap.GB())
	w.int(int(p.Tech))
	w.bool(p.Dedicated)
	return w.endRow()
}

// UserWriter streams users to CSV one record at a time with constant
// per-row memory. The header is written by NewUserWriter; each Write emits
// one row. Errors are sticky and carry the row number.
type UserWriter struct{ w rowWriter }

// NewUserWriter writes the users header and returns the streaming writer.
func NewUserWriter(w io.Writer) (*UserWriter, error) {
	uw := &UserWriter{rowWriter{w: w, table: "users"}}
	if err := uw.w.header(userHeader); err != nil {
		return nil, err
	}
	return uw, nil
}

// Write appends one user row.
func (w *UserWriter) Write(u *User) error { return encodeUser(&w.w, u) }

// SwitchWriter streams service-change records; see UserWriter.
type SwitchWriter struct{ w rowWriter }

// NewSwitchWriter writes the switches header and returns the streaming writer.
func NewSwitchWriter(w io.Writer) (*SwitchWriter, error) {
	sw := &SwitchWriter{rowWriter{w: w, table: "switches"}}
	if err := sw.w.header(switchHeader); err != nil {
		return nil, err
	}
	return sw, nil
}

// Write appends one switch row.
func (w *SwitchWriter) Write(s *Switch) error { return encodeSwitch(&w.w, s) }

// PlanWriter streams plan-survey records; see UserWriter.
type PlanWriter struct{ w rowWriter }

// NewPlanWriter writes the plans header and returns the streaming writer.
func NewPlanWriter(w io.Writer) (*PlanWriter, error) {
	pw := &PlanWriter{rowWriter{w: w, table: "plans"}}
	if err := pw.w.header(planHeader); err != nil {
		return nil, err
	}
	return pw, nil
}

// Write appends one plan row.
func (w *PlanWriter) Write(p *market.Plan) error { return encodePlan(&w.w, p) }

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

// UserSource yields users one record at a time; Read returns io.EOF after
// the last user. *UserReader, *UserStream (a shard set) and a panel's
// Source implement it, so one-pass consumers run unchanged over worlds
// larger than RAM.
type UserSource interface {
	Read(*User) error
}

// UserReader iterates a users CSV one record at a time with constant
// memory. Read fills the caller's User and returns io.EOF after the last
// row; every other error is a *RowError carrying the file, the 1-based row
// number (the header is row 1) and the fault class.
type UserReader struct {
	cr   *csv.Reader
	file string
	row  int
}

// NewUserReader validates the users header and returns the iterator. Load
// errors name the table; use NewUserReaderFile to carry a real path.
func NewUserReader(r io.Reader) (*UserReader, error) {
	return NewUserReaderFile(r, "users")
}

// NewUserReaderFile is NewUserReader with an explicit file name (typically
// the path being read) stamped onto every error.
func NewUserReaderFile(r io.Reader, file string) (*UserReader, error) {
	cr, err := newStreamReader(r, file, userHeader)
	if err != nil {
		return nil, err
	}
	return &UserReader{cr: cr, file: file, row: 1}, nil
}

// Row reports the 1-based line of the record Read last returned (or, after
// an error, of the record it failed on).
func (r *UserReader) Row() int { return r.row }

// Read parses the next user into u. It returns io.EOF at end of stream,
// leaving u unspecified.
func (r *UserReader) Read(u *User) error {
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
	p := &parser{rec: rec}
	decodeUser(p, u)
	if p.err != nil {
		return &RowError{File: r.file, Row: r.row, Class: FaultParse, Err: p.err}
	}
	return nil
}

// SwitchReader iterates a switches CSV; see UserReader.
type SwitchReader struct {
	cr   *csv.Reader
	file string
	row  int
}

// NewSwitchReader validates the switches header and returns the iterator.
func NewSwitchReader(r io.Reader) (*SwitchReader, error) {
	return NewSwitchReaderFile(r, "switches")
}

// NewSwitchReaderFile is NewSwitchReader with an explicit file name.
func NewSwitchReaderFile(r io.Reader, file string) (*SwitchReader, error) {
	cr, err := newStreamReader(r, file, switchHeader)
	if err != nil {
		return nil, err
	}
	return &SwitchReader{cr: cr, file: file, row: 1}, nil
}

// Row reports the 1-based line of the record Read last returned.
func (r *SwitchReader) Row() int { return r.row }

// Read parses the next switch into s, returning io.EOF at end of stream.
func (r *SwitchReader) Read(s *Switch) error {
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
	r.row, _ = r.cr.FieldPos(0)
	p := &parser{rec: rec}
	decodeSwitch(p, s)
	if p.err != nil {
		return &RowError{File: r.file, Row: r.row, Class: FaultParse, Err: p.err}
	}
	return nil
}

// PlanReader iterates a plan-survey CSV; see UserReader.
type PlanReader struct {
	cr   *csv.Reader
	file string
	row  int
}

// NewPlanReader validates the plans header and returns the iterator.
func NewPlanReader(r io.Reader) (*PlanReader, error) {
	return NewPlanReaderFile(r, "plans")
}

// NewPlanReaderFile is NewPlanReader with an explicit file name.
func NewPlanReaderFile(r io.Reader, file string) (*PlanReader, error) {
	cr, err := newStreamReader(r, file, planHeader)
	if err != nil {
		return nil, err
	}
	return &PlanReader{cr: cr, file: file, row: 1}, nil
}

// Row reports the 1-based line of the record Read last returned.
func (r *PlanReader) Row() int { return r.row }

// Read parses the next plan into p, returning io.EOF at end of stream.
func (r *PlanReader) Read(pl *market.Plan) error {
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
	r.row, _ = r.cr.FieldPos(0)
	p := &parser{rec: rec}
	decodePlan(p, pl)
	if p.err != nil {
		return &RowError{File: r.file, Row: r.row, Class: FaultParse, Err: p.err}
	}
	return nil
}
