package market

import (
	"math"
	"testing"

	"github.com/nwca/broadband/internal/randx"
	"github.com/nwca/broadband/internal/unit"
)

func profileFor(t *testing.T, code string) Profile {
	t.Helper()
	p, ok := FindProfile(code)
	if !ok {
		t.Fatalf("no profile for %s", code)
	}
	return p
}

func catalogFor(t *testing.T, code string) Catalog {
	t.Helper()
	return BuildCatalog(profileFor(t, code), randx.New(1).Split("cat-"+code))
}

func TestWorldIntegrity(t *testing.T) {
	w := World()
	if len(w) < 60 {
		t.Fatalf("world has %d countries, want a survey-scale breadth (≥60)", len(w))
	}
	seen := map[string]bool{}
	regions := map[Region]int{}
	for _, p := range w {
		if p.Country.Code == "" || p.Country.Name == "" {
			t.Errorf("country with missing identity: %+v", p.Country)
		}
		if seen[p.Country.Code] {
			t.Errorf("duplicate country code %s", p.Country.Code)
		}
		seen[p.Country.Code] = true
		regions[p.Country.Region]++
		if p.AccessPriceUSD <= 0 || p.UpgradeCostPerMbps <= 0 {
			t.Errorf("%s: non-positive market parameters", p.Country.Code)
		}
		if p.MinTierMbps <= 0 || p.MaxTierMbps < p.MinTierMbps {
			t.Errorf("%s: bad tier range [%v, %v]", p.Country.Code, p.MinTierMbps, p.MaxTierMbps)
		}
		if p.Country.GDPPerCapitaPPP <= 0 || p.Country.PPPFactor <= 0 {
			t.Errorf("%s: bad economy", p.Country.Code)
		}
		if p.UserWeight <= 0 || p.NeedMedianMbps <= 0 {
			t.Errorf("%s: bad population parameters", p.Country.Code)
		}
		if p.BaseRTTms <= 0 || p.LossMedianPct < 0 || p.SatelliteShare < 0 || p.SatelliteShare > 1 {
			t.Errorf("%s: bad quality profile", p.Country.Code)
		}
	}
	// Every paper region must be populated.
	for _, r := range Regions() {
		if regions[r] == 0 {
			t.Errorf("region %v has no countries", r)
		}
	}
}

func TestWorldPaperAnchors(t *testing.T) {
	// The four case-study markets and India must carry the paper's anchors.
	bw := profileFor(t, "BW")
	if bw.Country.GDPPerCapitaPPP != 14993 {
		t.Errorf("Botswana GDP pc = %v, want 14993 (Table 4)", bw.Country.GDPPerCapitaPPP)
	}
	if bw.AccessPriceUSD < 100 {
		t.Errorf("Botswana access price = %v, want ≈150", bw.AccessPriceUSD)
	}
	sa := profileFor(t, "SA")
	if sa.Country.GDPPerCapitaPPP != 29114 {
		t.Errorf("Saudi GDP pc = %v, want 29114", sa.Country.GDPPerCapitaPPP)
	}
	us := profileFor(t, "US")
	if us.Country.GDPPerCapitaPPP != 49797 {
		t.Errorf("US GDP pc = %v, want 49797", us.Country.GDPPerCapitaPPP)
	}
	if us.AccessPriceUSD > 25 {
		t.Errorf("US access price = %v, must be in the cheap band", us.AccessPriceUSD)
	}
	jp := profileFor(t, "JP")
	if jp.Country.GDPPerCapitaPPP != 34532 {
		t.Errorf("Japan GDP pc = %v, want 34532", jp.Country.GDPPerCapitaPPP)
	}
	if jp.UpgradeCostPerMbps >= 0.1 {
		t.Errorf("Japan upgrade cost = %v, want < $0.10 (Fig. 10)", jp.UpgradeCostPerMbps)
	}
	if us.UpgradeCostPerMbps <= 0.5 || us.UpgradeCostPerMbps >= 1 {
		t.Errorf("US upgrade cost = %v, want slightly above $0.50", us.UpgradeCostPerMbps)
	}
	in := profileFor(t, "IN")
	if in.AccessPriceUSD < 60 {
		t.Errorf("India access price = %v, want ≈67 (Sec. 7)", in.AccessPriceUSD)
	}
	if math.Abs(in.UpgradeCostPerMbps-us.UpgradeCostPerMbps) > 0.25*us.UpgradeCostPerMbps {
		t.Errorf("India upgrade cost %v must be within 25%% of the US's %v", in.UpgradeCostPerMbps, us.UpgradeCostPerMbps)
	}
	if in.BaseRTTms < 150 {
		t.Errorf("India base RTT = %v ms, want the paper's >100 ms regime", in.BaseRTTms)
	}
}

func TestFindProfile(t *testing.T) {
	if _, ok := FindProfile("XX"); ok {
		t.Error("unknown code should not resolve")
	}
	p, ok := FindProfile("JP")
	if !ok || p.Country.Name != "Japan" {
		t.Errorf("FindProfile(JP) = %+v, %v", p.Country, ok)
	}
}

func TestBuildCatalogStructure(t *testing.T) {
	cat := catalogFor(t, "US")
	if len(cat.Plans) < 10 {
		t.Fatalf("US catalog has %d plans, want a rich ladder", len(cat.Plans))
	}
	for _, p := range cat.Plans {
		if p.Down <= 0 || p.Up <= 0 {
			t.Errorf("plan with bad rates: %v", p)
		}
		if p.PriceUSD <= 0 {
			t.Errorf("plan with bad price: %v", p)
		}
		if p.Up > p.Down {
			t.Errorf("upload exceeds download: %v", p)
		}
		if p.Country != "US" {
			t.Errorf("plan with wrong country: %v", p)
		}
	}
	// Ladder spans the configured range.
	prof := profileFor(t, "US")
	var lo, hi float64 = math.Inf(1), 0
	for _, p := range cat.Plans {
		lo = math.Min(lo, p.Down.Mbps())
		hi = math.Max(hi, p.Down.Mbps())
	}
	if lo > prof.MinTierMbps*1.01 || hi < prof.MaxTierMbps*0.49 {
		t.Errorf("ladder [%v, %v] does not span profile [%v, %v]", lo, hi, prof.MinTierMbps, prof.MaxTierMbps)
	}
}

func TestBuildCatalogDeterminism(t *testing.T) {
	a := BuildCatalog(profileFor(t, "DE"), randx.New(7).Split("x"))
	b := BuildCatalog(profileFor(t, "DE"), randx.New(7).Split("x"))
	if len(a.Plans) != len(b.Plans) {
		t.Fatalf("catalog sizes differ: %d vs %d", len(a.Plans), len(b.Plans))
	}
	for i := range a.Plans {
		if a.Plans[i] != b.Plans[i] {
			t.Fatalf("plan %d differs: %v vs %v", i, a.Plans[i], b.Plans[i])
		}
	}
}

func TestAccessPriceMatchesProfiles(t *testing.T) {
	// The generated catalog's access price must land near the profile's
	// configured value for the case-study markets.
	for _, c := range []struct {
		code string
		want float64
		tol  float64
	}{
		{"US", 20, 6}, {"JP", 21, 6}, {"DE", 18, 5}, {"BW", 150, 40}, {"SA", 62, 15}, {"IN", 67, 15},
	} {
		cat := catalogFor(t, c.code)
		got, ok := AccessPrice(cat)
		if !ok {
			t.Errorf("%s: no access price", c.code)
			continue
		}
		if math.Abs(got.Dollars()-c.want) > c.tol {
			t.Errorf("%s access price = %v, want ≈%v", c.code, got, c.want)
		}
	}
}

func TestAccessPriceGroups(t *testing.T) {
	// Sec. 5's grouping examples: Germany/Japan/US cheap; Mexico/NZ/
	// Philippines mid; Botswana/Saudi Arabia/Iran expensive.
	groups := map[string]AccessPriceGroup{
		"DE": AccessCheap, "JP": AccessCheap, "US": AccessCheap,
		"MX": AccessMid, "NZ": AccessMid, "PH": AccessMid,
		"BW": AccessExpensive, "SA": AccessExpensive, "IR": AccessExpensive,
	}
	for code, want := range groups {
		cat := catalogFor(t, code)
		price, ok := AccessPrice(cat)
		if !ok {
			t.Errorf("%s: no access price", code)
			continue
		}
		if got := GroupOfAccessPrice(price); got != want {
			t.Errorf("%s in group %v (price %v), want %v", code, got, price, want)
		}
	}
}

func TestEstimateUpgradeCost(t *testing.T) {
	for _, c := range []struct {
		code    string
		loSlope float64
		hiSlope float64
	}{
		{"JP", 0.0, 0.12},  // < $0.10
		{"KR", 0.0, 0.1},   // < $0.10
		{"US", 0.4, 0.75},  // slightly above $0.50
		{"CA", 0.45, 0.95}, // slightly above $0.50
		{"GH", 20, 70},     // well above $10
		{"UG", 15, 60},
		{"PY", 60, 200}, // "well above $100" regime
	} {
		cat := catalogFor(t, c.code)
		up, err := EstimateUpgradeCost(cat)
		if err != nil {
			t.Errorf("%s: %v", c.code, err)
			continue
		}
		if float64(up.Slope) < c.loSlope || float64(up.Slope) > c.hiSlope {
			t.Errorf("%s slope = %v, want in [%v, %v]", c.code, up.Slope, c.loSlope, c.hiSlope)
		}
		if !up.Reliable() {
			t.Errorf("%s: expected a reliable (r > 0.4) fit, got r = %v", c.code, up.R)
		}
	}
}

func TestDedicatedPlansWeakenCorrelation(t *testing.T) {
	// Afghanistan's dedicated-line outliers must depress the correlation
	// relative to the same market without them (the paper's Sec. 6 example).
	prof := profileFor(t, "AF")
	with, err := EstimateUpgradeCost(BuildCatalog(prof, randx.New(3).Split("af")))
	if err != nil {
		t.Fatal(err)
	}
	prof.DedicatedPlans = false
	without, err := EstimateUpgradeCost(BuildCatalog(prof, randx.New(3).Split("af")))
	if err != nil {
		t.Fatal(err)
	}
	if with.R >= without.R {
		t.Errorf("dedicated outliers should weaken correlation: with=%v without=%v", with.R, without.R)
	}
}

func TestSummarize(t *testing.T) {
	cat := catalogFor(t, "US")
	s, err := Summarize(cat)
	if err != nil {
		t.Fatal(err)
	}
	if s.AccessGroup != AccessCheap {
		t.Errorf("US access group = %v", s.AccessGroup)
	}
	if s.Upgrade.N != len(cat.Plans) {
		t.Errorf("regression over %d plans, catalog has %d", s.Upgrade.N, len(cat.Plans))
	}
	if _, err := Summarize(Catalog{Country: Country{Code: "ZZ"}}); err == nil {
		t.Error("empty catalog should not summarize")
	}
}

func TestCatalogHelpers(t *testing.T) {
	cat := catalogFor(t, "US")
	near, ok := cat.NearestTier(unit.MbpsOf(17.6))
	if !ok {
		t.Fatal("NearestTier failed")
	}
	if near.Down.Mbps() < 8 || near.Down.Mbps() > 40 {
		t.Errorf("nearest tier to 17.6 Mbps = %v", near.Down)
	}
	if _, ok := cat.NearestTier(0); ok {
		t.Error("NearestTier(0) should fail")
	}
}

func TestGroupBoundaries(t *testing.T) {
	if GroupOfAccessPrice(25) != AccessCheap || GroupOfAccessPrice(25.01) != AccessMid {
		t.Error("access $25 boundary wrong")
	}
	if GroupOfAccessPrice(60) != AccessMid || GroupOfAccessPrice(60.01) != AccessExpensive {
		t.Error("access $60 boundary wrong")
	}
	if GroupOfUpgradeCost(0.5) != UpgradeCheap || GroupOfUpgradeCost(0.51) != UpgradeMid {
		t.Error("upgrade $0.50 boundary wrong")
	}
	if GroupOfUpgradeCost(1.0) != UpgradeMid || GroupOfUpgradeCost(1.01) != UpgradeExpensive {
		t.Error("upgrade $1 boundary wrong")
	}
}

func TestIncomeShareTable4(t *testing.T) {
	// Table 4: Botswana $100 at GDP pc 14,993 → 8.0%; US $53 at 49,797 →
	// 1.3%; Japan $37 at 34,532 → 1.3%; Saudi $79 at 29,114 → 3.3%.
	cases := []struct {
		code  string
		price float64
		want  float64
	}{
		{"BW", 100, 0.080}, {"SA", 79, 0.033}, {"US", 53, 0.013}, {"JP", 37, 0.013},
	}
	for _, c := range cases {
		p := profileFor(t, c.code)
		got := IncomeShare(unit.USD(c.price), p.Country)
		if math.Abs(got-c.want) > 0.002 {
			t.Errorf("%s income share = %.4f, want ≈%.3f", c.code, got, c.want)
		}
	}
	if IncomeShare(10, Country{}) != 0 {
		t.Error("zero GDP should yield zero share")
	}
}

func TestRegionStrings(t *testing.T) {
	if Africa.String() != "Africa" || AsiaDeveloped.String() != "Asia (developed)" {
		t.Error("region labels wrong")
	}
	if Region(99).String() != "Region(99)" {
		t.Error("unknown region label")
	}
	if len(Regions()) != int(numRegions) {
		t.Errorf("Regions() lists %d, want %d", len(Regions()), numRegions)
	}
}

func TestTechnologyStrings(t *testing.T) {
	for tech, want := range map[Technology]string{
		DSL: "DSL", Cable: "Cable", Fiber: "Fiber", FixedWireless: "FixedWireless", Satellite: "Satellite",
	} {
		if tech.String() != want {
			t.Errorf("%d.String() = %q", tech, tech.String())
		}
	}
}
