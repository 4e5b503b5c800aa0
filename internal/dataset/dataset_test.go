package dataset

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/nwca/broadband/internal/market"
	"github.com/nwca/broadband/internal/stats"
	"github.com/nwca/broadband/internal/unit"
)

func sampleUser(id int64, country string, capMbps float64) User {
	return User{
		ID:         id,
		Country:    country,
		Vantage:    VantageDasu,
		Year:       2012,
		ISP:        country + "-ISP1",
		NetworkKey: country + "-ISP1/net0/city0",
		PlanDown:   unit.MbpsOf(capMbps),
		PlanUp:     unit.MbpsOf(capMbps / 4),
		PlanPrice:  40,
		Capacity:   unit.MbpsOf(capMbps * 0.95),
		UpCapacity: unit.MbpsOf(capMbps / 4 * 0.9),
		RTT:        0.08,
		Loss:       0.002,
		Usage: UsageSummary{
			Mean: unit.KbpsOf(200), Peak: unit.MbpsOf(1.5),
			MeanNoBT: unit.KbpsOf(150), PeakNoBT: unit.MbpsOf(1.2),
		},
		UsesBT:      true,
		AccessPrice: 20,
		UpgradeCost: 0.55,
	}
}

func sampleDataset() *Dataset {
	usProfile, _ := market.FindProfile("US")
	jpProfile, _ := market.FindProfile("JP")
	d := &Dataset{
		Switches: []Switch{{
			UserID: 1, Country: "US",
			FromNet: "a", ToNet: "b",
			FromDown: unit.MbpsOf(2), ToDown: unit.MbpsOf(10),
			Before: UsageSummary{Mean: unit.KbpsOf(95), Peak: unit.KbpsOf(192)},
			After:  UsageSummary{Mean: unit.KbpsOf(189), Peak: unit.KbpsOf(634)},
		}},
		Plans: []market.Plan{{
			Country: "US", ISP: "US-ISP1", Down: unit.MbpsOf(10), Up: unit.MbpsOf(2),
			PriceLocal: 45, PriceUSD: 45, Tech: market.Cable,
		}},
		Markets: map[string]market.MarketSummary{
			"US": {Country: usProfile.Country, AccessPrice: 20, AccessGroup: market.AccessCheap},
			"JP": {Country: jpProfile.Country, AccessPrice: 21, AccessGroup: market.AccessCheap},
		},
	}
	d.SetUsers(BuildPanel([]User{
		sampleUser(1, "US", 10),
		sampleUser(2, "US", 2),
		sampleUser(3, "JP", 50),
	}))
	return d
}

func TestValidateAcceptsGoodData(t *testing.T) {
	if err := sampleDataset().Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
}

// TestValidateCatchesCorruption breaks one row, or the rules between rows,
// and installs the broken users table through SetUsers, since Validate
// reads the users table from the panel.
func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(d *Dataset, users []User)
	}{
		{"no users", func(d *Dataset, users []User) { d.Users = nil }},
		{"duplicate id", func(d *Dataset, users []User) { users[1].ID = users[0].ID }},
		{"missing country", func(d *Dataset, users []User) { users[0].Country = "" }},
		{"unknown market", func(d *Dataset, users []User) { users[0].Country = "ZZ" }},
		{"zero capacity", func(d *Dataset, users []User) { users[0].Capacity = 0 }},
		{"zero rtt", func(d *Dataset, users []User) { users[0].RTT = 0 }},
		{"bad loss", func(d *Dataset, users []User) { users[0].Loss = 1.5 }},
		{"negative usage", func(d *Dataset, users []User) { users[0].Usage.Mean = -1 }},
		{"clock skew", func(d *Dataset, users []User) { users[0].Year = 1900 }},
		{"non-finite upgrade cost", func(d *Dataset, users []User) { users[0].UpgradeCost = unit.PerMbps(math.Inf(-1)) }},
		{"downgrade switch", func(d *Dataset, users []User) { d.Switches[0].ToDown = unit.KbpsOf(100) }},
		{"negative plan price", func(d *Dataset, users []User) { d.Plans[0].PriceUSD = -1 }},
	}
	for _, c := range cases {
		d := sampleDataset()
		users := append([]User(nil), d.Users...)
		c.break_(d, users)
		if d.Users != nil {
			d.SetUsers(BuildPanel(users))
		}
		if err := d.Validate(); err == nil {
			t.Errorf("%s: corruption not caught", c.name)
		}
	}
}

func TestUsersCSVRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := WriteAll(&buf, d.Users); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll[User](&buf, "users")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(d.Users) {
		t.Fatalf("round trip lost users: %d vs %d", len(got), len(d.Users))
	}
	for i := range got {
		a, b := got[i], d.Users[i]
		if a.ID != b.ID || a.Country != b.Country || a.Vantage != b.Vantage || a.Year != b.Year {
			t.Errorf("user %d identity mismatch: %+v vs %+v", i, a, b)
		}
		if !approxRate(a.Capacity, b.Capacity) || !approxRate(a.Usage.PeakNoBT, b.Usage.PeakNoBT) {
			t.Errorf("user %d rates mismatch", i)
		}
		if a.UsesBT != b.UsesBT || a.PlanTech != b.PlanTech {
			t.Errorf("user %d flags mismatch", i)
		}
		if !approx(a.RTT, b.RTT) || !approx(float64(a.Loss), float64(b.Loss)) {
			t.Errorf("user %d quality mismatch", i)
		}
		if !approx(a.AccessPrice.Dollars(), b.AccessPrice.Dollars()) {
			t.Errorf("user %d market mismatch", i)
		}
	}
}

func TestSwitchesCSVRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := WriteAll(&buf, d.Switches); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll[Switch](&buf, "switches")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d switches", len(got))
	}
	s := got[0]
	if s.UserID != 1 || !approxRate(s.ToDown, unit.MbpsOf(10)) || !approxRate(s.After.Peak, unit.KbpsOf(634)) {
		t.Errorf("switch mismatch: %+v", s)
	}
}

func TestPlansCSVRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := WriteAll(&buf, d.Plans); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll[market.Plan](&buf, "plans")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ISP != "US-ISP1" || got[0].Tech != market.Cable {
		t.Errorf("plans mismatch: %+v", got)
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	if _, err := ReadAll[User](strings.NewReader(""), "users"); err == nil {
		t.Error("empty users input should error")
	}
	if _, err := ReadAll[User](strings.NewReader("not,a,users,header\n"), "users"); err == nil {
		t.Error("wrong header should error")
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, sampleDataset().Users); err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(buf.String(), "2012", "twenty12", 1)
	if _, err := ReadAll[User](strings.NewReader(corrupted), "users"); err == nil {
		t.Error("non-numeric field should error")
	}
	if _, err := ReadAll[Switch](strings.NewReader(""), "switches"); err == nil {
		t.Error("empty switches input should error")
	}
	if _, err := ReadAll[market.Plan](strings.NewReader("x\n"), "plans"); err == nil {
		t.Error("bad plans header should error")
	}
}

func TestSaveDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	d := sampleDataset()
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"users.csv", "switches.csv", "plans.csv"} {
		fp := filepath.Join(dir, name)
		st, err := os.Stat(fp)
		if err != nil {
			t.Errorf("%s missing: %v", name, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "users.csv"))
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll[User](bytes.NewReader(raw), "users")
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(d.Users) {
		t.Errorf("reloaded %d users, want %d", len(back), len(d.Users))
	}
}

func TestSelectAndPredicates(t *testing.T) {
	d := sampleDataset()
	p := BuildPanel(d.Users)
	ids := func(preds ...ColPred) []int64 {
		var out []int64
		for _, i := range p.Where(preds...).Idx {
			out = append(out, p.ID[i])
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		preds []ColPred
		want  []int64
	}{
		{"ColCountry(US)", []ColPred{ColCountry("US")}, []int64{1, 2}},
		{"ColCountry(ZZ)", []ColPred{ColCountry("ZZ")}, nil},
		{"ColNotCountry(US)", []ColPred{ColNotCountry("US")}, []int64{3}},
		{"vantage+year", []ColPred{ColVantage(VantageDasu), ColYear(2012)}, []int64{1, 2, 3}},
		{"ColTier(>32)", []ColPred{ColTier(stats.TierOver32)}, []int64{3}},
		{"ColCapacityBetween", []ColPred{ColCapacityBetween(unit.MbpsOf(5), unit.MbpsOf(20))}, []int64{1}},
		{"ColClass", []ColPred{ColClass(stats.ClassOf(unit.MbpsOf(1.9)))}, []int64{2}},
	} {
		if got := ids(tc.preds...); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s selected IDs %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMetricsAndHelpers(t *testing.T) {
	d := sampleDataset()
	p := BuildPanel(d.Users)
	for _, v := range PeakUsageNoBT(p) {
		if v != float64(unit.MbpsOf(1.2)) {
			t.Errorf("PeakUsageNoBT = %v", v)
		}
	}
	if caps := p.All().Gather(p.Capacity); caps[2] != float64(unit.MbpsOf(47.5)) {
		t.Errorf("Capacity[2] = %v", caps[2])
	}
	// Utilization is peak-no-BT over capacity, clamped to 1.
	u := d.Users[0]
	want := float64(unit.MbpsOf(1.2)) / float64(unit.MbpsOf(9.5))
	if got := u.PeakUtilization(); !approx(got, want) {
		t.Errorf("PeakUtilization = %v, want %v", got, want)
	}
	u.Usage.PeakNoBT = unit.MbpsOf(100)
	if u.PeakUtilization() != 1 {
		t.Error("utilization must clamp at 1")
	}
	u.Capacity = 0
	if u.PeakUtilization() != 0 {
		t.Error("zero capacity utilization must be 0")
	}
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	return d <= 1e-6*scale+1e-12
}

func approxRate(a, b unit.Bitrate) bool { return approx(float64(a), float64(b)) }
