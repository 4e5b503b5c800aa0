package dataset

import (
	"io"
	"reflect"
	"testing"

	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/stats"
	"github.com/nwca/broadband/internal/traffic"
	"github.com/nwca/broadband/internal/unit"
)

// panelUsers builds a varied user table exercising every panel column:
// several countries, both vantages, multiple years, capped and uncapped
// plans, all archetypes and a spread of technologies.
func panelUsers(n int) []User {
	countries := []string{"US", "JP", "IN", "BW", "SA"}
	techs := []market.Technology{market.DSL, market.Cable, market.Fiber}
	users := make([]User, n)
	for i := range users {
		u := sampleUser(int64(i+1), countries[i%len(countries)], 0.3+float64(i%60)*0.9)
		u.Year = 2011 + i%4
		u.PlanTech = techs[i%len(techs)]
		u.Archetype = traffic.Archetype(i % 5)
		u.WebRTT = 0.02 + float64(i%7)*0.01
		u.RTT = 0.01 + float64(i%40)*0.02
		u.Loss = unit.LossRate(float64(i%15) * 0.001)
		if i%3 == 0 {
			u.Vantage = VantageGateway
		}
		if i%4 == 0 {
			u.PlanCap = unit.ByteSize(int64(i+1) * 50 << 30)
		}
		u.UsesBT = i%2 == 0
		users[i] = u
	}
	return users
}

func TestPanelRoundTrip(t *testing.T) {
	users := panelUsers(97)
	p := BuildPanel(users)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Len() != len(users) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(users))
	}
	back := p.Users()
	if !reflect.DeepEqual(users, back) {
		t.Fatal("User → Panel → User round-trip is not lossless")
	}
	// Row-at-a-time materialization agrees with bulk materialization.
	var u User
	for i := range users {
		p.UserAt(i, &u)
		if !reflect.DeepEqual(users[i], u) {
			t.Fatalf("UserAt(%d) mismatch", i)
		}
	}
}

func TestPanelPeakUtilizationMatchesRow(t *testing.T) {
	users := panelUsers(50)
	users[7].Capacity = 0 // degenerate row: utilization must clamp to 0
	users[9].Usage.PeakNoBT = users[9].Capacity * 3
	p := BuildPanel(users)
	for i := range users {
		if got, want := p.PeakUtilization(i), users[i].PeakUtilization(); got != want {
			t.Fatalf("row %d: PeakUtilization = %v, want %v", i, got, want)
		}
	}
}

// Pred is a row predicate: the test-only reference each ColPred is held
// to. The row family below restates every columnar predicate over a
// materialized User, so a dictionary-code or unit-conversion slip in the
// columnar form shows up as a disagreement.
type Pred func(*User) bool

func ByCountry(code string) Pred  { return func(u *User) bool { return u.Country == code } }
func NotCountry(code string) Pred { return func(u *User) bool { return u.Country != code } }
func ByVantage(v Vantage) Pred    { return func(u *User) bool { return u.Vantage == v } }
func ByYear(y int) Pred           { return func(u *User) bool { return u.Year == y } }
func ByTier(t stats.Tier) Pred {
	return func(u *User) bool { return stats.TierOf(u.Capacity) == t }
}
func ByClass(c stats.CapacityClass) Pred { return func(u *User) bool { return c.Contains(u.Capacity) } }
func CapacityBetween(lo, hi unit.Bitrate) Pred {
	return func(u *User) bool { return u.Capacity > lo && u.Capacity <= hi }
}

// selectIdx returns the indices of the users satisfying every predicate,
// in ascending order: the row-scan reference for Panel.Where.
func selectIdx(users []User, preds ...Pred) []int {
	var out []int
	for i := range users {
		keep := true
		for _, p := range preds {
			if !p(&users[i]) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, i)
		}
	}
	return out
}

// predPairs are matched row/columnar predicate stacks: selectIdx with the
// Pred side must agree exactly with Where on the ColPred side.
func predPairs() []struct {
	name string
	row  []Pred
	col  []ColPred
} {
	return []struct {
		name string
		row  []Pred
		col  []ColPred
	}{
		{"country", []Pred{ByCountry("US")}, []ColPred{ColCountry("US")}},
		{"not-country", []Pred{NotCountry("IN")}, []ColPred{ColNotCountry("IN")}},
		{"missing-country", []Pred{ByCountry("ZZ")}, []ColPred{ColCountry("ZZ")}},
		{"missing-not-country", []Pred{NotCountry("ZZ")}, []ColPred{ColNotCountry("ZZ")}},
		{"vantage", []Pred{ByVantage(VantageGateway)}, []ColPred{ColVantage(VantageGateway)}},
		{"year", []Pred{ByYear(2012)}, []ColPred{ColYear(2012)}},
		{"tier", []Pred{ByTier(stats.Tiers()[1])}, []ColPred{ColTier(stats.Tiers()[1])}},
		{"class", []Pred{ByClass(stats.ClassOf(unit.MbpsOf(3)))}, []ColPred{ColClass(stats.ClassOf(unit.MbpsOf(3)))}},
		{"capacity", []Pred{CapacityBetween(unit.MbpsOf(2), unit.MbpsOf(20))},
			[]ColPred{ColCapacityBetween(unit.MbpsOf(2), unit.MbpsOf(20))}},
		{"stack", []Pred{ByCountry("US"), ByVantage(VantageDasu), ByYear(2011)},
			[]ColPred{ColCountry("US"), ColVantage(VantageDasu), ColYear(2011)}},
		{"empty-stack", nil, nil},
	}
}

func TestWhereMatchesSelect(t *testing.T) {
	users := panelUsers(200)
	p := BuildPanel(users)
	for _, tc := range predPairs() {
		idx := selectIdx(users, tc.row...)
		v := p.Where(tc.col...)
		if len(idx) != v.Len() {
			t.Fatalf("%s: selectIdx kept %d, Where kept %d", tc.name, len(idx), v.Len())
		}
		var u User
		for k, j := range idx {
			if int32(j) != v.Idx[k] {
				t.Fatalf("%s: selectIdx[%d] = %d, Where idx = %d", tc.name, k, j, v.Idx[k])
			}
			if p.UserAt(int(v.Idx[k]), &u); !reflect.DeepEqual(users[j], u) {
				t.Fatalf("%s: row %d differs between selectIdx and Where", tc.name, k)
			}
		}
	}
}

func TestViewChainingEqualsCombinedWhere(t *testing.T) {
	users := panelUsers(150)
	p := BuildPanel(users)
	combined := p.Where(ColCountry("US"), ColVantage(VantageDasu), ColYear(2011))
	chained := p.Where(ColCountry("US")).Where(ColVantage(VantageDasu)).Where(ColYear(2011))
	if !reflect.DeepEqual(combined.Idx, chained.Idx) {
		t.Fatalf("chained Where = %v, combined = %v", chained.Idx, combined.Idx)
	}
}

func TestViewGatherAndSource(t *testing.T) {
	users := panelUsers(60)
	p := BuildPanel(users)
	v := p.Where(ColVantage(VantageDasu))
	caps := v.Gather(p.Capacity)
	if len(caps) != v.Len() {
		t.Fatalf("Gather returned %d values for %d rows", len(caps), v.Len())
	}
	for k, i := range v.Idx {
		if caps[k] != float64(users[i].Capacity) {
			t.Fatalf("Gather[%d] = %v, want %v", k, caps[k], float64(users[i].Capacity))
		}
	}
	// Source streams the same rows in the same order.
	src := v.Source()
	var u User
	k := 0
	for {
		err := src.Read(&u)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(u, users[v.Idx[k]]) {
			t.Fatalf("Source row %d mismatch", k)
		}
		k++
	}
	if k != v.Len() {
		t.Fatalf("Source yielded %d rows, want %d", k, v.Len())
	}
}

func TestPanelValidateCatchesMismatch(t *testing.T) {
	p := BuildPanel(panelUsers(10))
	p.RTT = p.RTT[:5]
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted a ragged panel")
	}
	p2 := BuildPanel(panelUsers(10))
	p2.Country[3] = 99
	if err := p2.Validate(); err == nil {
		t.Fatal("Validate accepted an out-of-range dictionary code")
	}
}

func TestDictDeterminism(t *testing.T) {
	d := NewDict()
	words := []string{"b", "a", "b", "c", "a"}
	var got []uint32
	for _, w := range words {
		got = append(got, d.Intern(w))
	}
	want := []uint32{0, 1, 0, 2, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Intern codes = %v, want %v (first-appearance order)", got, want)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	if d.Value(2) != "c" {
		t.Fatalf("Value(2) = %q, want %q", d.Value(2), "c")
	}
	if _, ok := d.Code("zzz"); ok {
		t.Fatal("Code found a string never interned")
	}
}

// FuzzPanelWhere drives random predicate stacks through both selection
// pipelines: selectIdx over rows and Panel.Where over columns must
// keep exactly the same rows in the same order.
func FuzzPanelWhere(f *testing.F) {
	f.Add([]byte{0}, uint8(1))
	f.Add([]byte{1, 14, 33}, uint8(7))
	f.Add([]byte{250, 9, 120, 77}, uint8(100))
	f.Fuzz(func(t *testing.T, ops []byte, seed uint8) {
		users := panelUsers(30 + int(seed)%90)
		p := BuildPanel(users)
		countries := []string{"US", "JP", "IN", "BW", "SA", "ZZ"}
		var row []Pred
		var col []ColPred
		for _, b := range ops {
			if len(row) >= 4 {
				break
			}
			arg := int(b / 8)
			switch b % 8 {
			case 0:
				cc := countries[arg%len(countries)]
				row, col = append(row, ByCountry(cc)), append(col, ColCountry(cc))
			case 1:
				cc := countries[arg%len(countries)]
				row, col = append(row, NotCountry(cc)), append(col, ColNotCountry(cc))
			case 2:
				v := Vantage(arg % 2)
				row, col = append(row, ByVantage(v)), append(col, ColVantage(v))
			case 3:
				y := 2010 + arg%6
				row, col = append(row, ByYear(y)), append(col, ColYear(y))
			case 4:
				tier := stats.Tiers()[arg%len(stats.Tiers())]
				row, col = append(row, ByTier(tier)), append(col, ColTier(tier))
			case 5:
				c := stats.ClassOf(unit.KbpsOf(150)) + stats.CapacityClass(arg%12)
				row, col = append(row, ByClass(c)), append(col, ColClass(c))
			case 6:
				lo := unit.MbpsOf(float64(arg % 30))
				hi := lo + unit.MbpsOf(1+float64(arg%25))
				row, col = append(row, CapacityBetween(lo, hi)), append(col, ColCapacityBetween(lo, hi))
			case 7:
				// no-op: vary stack lengths
			}
		}
		sel := selectIdx(users, row...)
		v := p.Where(col...)
		if len(sel) != v.Len() {
			t.Fatalf("selectIdx kept %d rows, Where kept %d", len(sel), v.Len())
		}
		for k, j := range sel {
			if users[j].ID != p.ID[v.Idx[k]] {
				t.Fatalf("row %d: selectIdx ID %d vs Where ID %d", k, users[j].ID, p.ID[v.Idx[k]])
			}
		}
		var u User
		for k, j := range sel {
			if p.UserAt(int(v.Idx[k]), &u); !reflect.DeepEqual(users[j], u) {
				t.Fatalf("row %d differs after materialization", k)
			}
		}
	})
}
