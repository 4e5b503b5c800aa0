package dataset

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/unit"
)

// fuzzSeeds builds a table's seed corpus: the well-formed table plus the
// corruption fixtures the error-path tests pin (truncation, extra fields,
// permuted header, a garbled field).
func fuzzSeeds[T Row](f *testing.F, rows []T) {
	var b bytes.Buffer
	if err := WriteAll(&b, rows); err != nil {
		f.Fatal(err)
	}
	hdr := tableOf[T]().header
	full := b.String()
	lines := strings.SplitAfter(full, "\n")
	first := strings.TrimSuffix(lines[1], "\n")
	f.Add(full)
	f.Add(lines[0])                                                       // header only
	f.Add(full[:len(full)-10])                                            // truncated mid-record
	f.Add(lines[0] + first + ",garbage\n")                                // extra field
	f.Add(strings.Replace(full, hdr[0]+","+hdr[1], hdr[1]+","+hdr[0], 1)) // permuted header
	f.Add(lines[0] + first + "x\n")                                       // garbled last field
	f.Add("")
	f.Add(hdr[0] + "\n1\n")
	f.Add(lines[0] + "\x00\n")
}

// fuzzTable throws arbitrary bytes at T's CSV decoder. Three contracts
// hold for any input: no panic; the record-at-a-time Reader and ReadAll
// agree on accept/reject and on every decoded row; and any accepted input
// reaches the save→load fixed point in one cycle (re-saving the loaded
// rows is byte-identical — the lossless-serialization contract). Rows are
// compared through their encoding, so NaN fields compare equal.
func fuzzTable[T Row](t *testing.T, data string) {
	rows, err := ReadAll[T](strings.NewReader(data), "fuzz")

	var streamed []T
	var serr error
	if r, rerr := NewReader[T](strings.NewReader(data), "fuzz"); rerr != nil {
		serr = rerr
	} else {
		var v T
		for {
			rerr := r.Read(&v)
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				serr = rerr
				break
			}
			streamed = append(streamed, v)
		}
	}
	if (err == nil) != (serr == nil) {
		t.Fatalf("ReadAll err %v vs Reader err %v", err, serr)
	}
	if err != nil {
		return
	}

	// Unit-scaled fields settle after one write→read cycle; from there
	// the table must re-serialize bit-for-bit.
	var first, viaStream bytes.Buffer
	if werr := WriteAll(&first, rows); werr != nil {
		t.Fatalf("rewrite of accepted input failed: %v", werr)
	}
	if werr := WriteAll(&viaStream, streamed); werr != nil {
		t.Fatal(werr)
	}
	if !bytes.Equal(first.Bytes(), viaStream.Bytes()) {
		t.Fatalf("ReadAll decoded %d rows, Reader %d, and they differ", len(rows), len(streamed))
	}
	settled, rerr := ReadAll[T](bytes.NewReader(first.Bytes()), "fuzz")
	if rerr != nil {
		t.Fatalf("rewritten table does not re-parse: %v", rerr)
	}
	var second bytes.Buffer
	if werr := WriteAll(&second, settled); werr != nil {
		t.Fatal(werr)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("accepted input did not reach the save→load fixed point in one cycle")
	}
}

func FuzzUserReader(f *testing.F) {
	fuzzSeeds(f, manyUsers(5))
	f.Fuzz(fuzzTable[User])
}

func FuzzSwitchReader(f *testing.F) {
	switches := make([]Switch, 5)
	for i := range switches {
		switches[i] = Switch{
			UserID: int64(i + 1), Country: "US", FromNet: "a", ToNet: `b, "c"`,
			FromDown: unit.MbpsOf(2 + float64(i)), ToDown: unit.MbpsOf(10.5 * float64(i+1)),
			Before: UsageSummary{Mean: unit.KbpsOf(95), Peak: unit.KbpsOf(192.3)},
			After:  UsageSummary{Mean: unit.KbpsOf(189), Peak: unit.KbpsOf(634), PeakNoBT: unit.KbpsOf(1.0 / 3)},
		}
	}
	fuzzSeeds(f, switches)
	f.Fuzz(fuzzTable[Switch])
}

func FuzzPlanReader(f *testing.F) {
	var plans []market.Plan
	for _, mbps := range []float64{1, 2.5, 8, 16, 100} {
		p := planFor("JP", mbps, 21+0.08*(mbps-1))
		p.Cap = unit.ByteSize(mbps * float64(unit.GB))
		p.Dedicated = mbps > 50
		plans = append(plans, p)
	}
	fuzzSeeds(f, plans)
	f.Fuzz(fuzzTable[market.Plan])
}
