package cli

import (
	"flag"

	"github.com/nwca/broadband/internal/synth"
)

// CanonicalWorld is the reproduction's reference world: bbrepro's default
// and the world the committed goldens under testdata/golden were generated
// from.
var CanonicalWorld = synth.Config{
	Seed:          20140705,
	Users:         5000,
	FCCUsers:      1200,
	Days:          2,
	SwitchTarget:  900,
	MinPerCountry: 30,
}

// WorldFlags registers the world-size flags (-users -fcc -days -switches
// -min-per-country -workers) on fs, defaulting to def's values, and
// returns a function yielding def with those six fields replaced by the
// parsed values; call it after fs.Parse. The seed stays with the caller,
// since commands differ in how many worlds they build. Values are not
// validated here: synth.Build rejects bad sizes with a *synth.ConfigError.
func WorldFlags(fs *flag.FlagSet, def synth.Config) func() synth.Config {
	cfg := def
	fs.IntVar(&cfg.Users, "users", def.Users, "end-host users in the primary year")
	fs.IntVar(&cfg.FCCUsers, "fcc", def.FCCUsers, "US gateway-panel users")
	fs.IntVar(&cfg.Days, "days", def.Days, "observation days simulated per user")
	fs.IntVar(&cfg.SwitchTarget, "switches", def.SwitchTarget, "service-upgrade records")
	fs.IntVar(&cfg.MinPerCountry, "min-per-country", def.MinPerCountry, "minimum primary-year users per country")
	fs.IntVar(&cfg.Workers, "workers", def.Workers, "concurrent workers (0 = GOMAXPROCS, 1 = sequential; output is identical either way)")
	return func() synth.Config { return cfg }
}
