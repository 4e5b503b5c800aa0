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

// WorldFlags registers the five world-size flags (-users -fcc -days
// -switches -min-per-country) on fs, defaulting to def's values, and
// returns a function yielding def with those five fields replaced by the
// parsed values; call it after fs.Parse. The seed stays with the caller,
// since commands differ in how many worlds they build. Values are not
// validated here: synth.Build rejects bad sizes with a *synth.ConfigError.
// There is no worker-count flag: parallelism is GOMAXPROCS; bound it with
// the environment variable. Output is identical either way.
func WorldFlags(fs *flag.FlagSet, def synth.Config) func() synth.Config {
	cfg := def
	fs.IntVar(&cfg.Users, "users", def.Users, "end-host users in the primary year")
	fs.IntVar(&cfg.FCCUsers, "fcc", def.FCCUsers, "US gateway-panel users")
	fs.IntVar(&cfg.Days, "days", def.Days, "observation days simulated per user")
	fs.IntVar(&cfg.SwitchTarget, "switches", def.SwitchTarget, "service-upgrade records")
	fs.IntVar(&cfg.MinPerCountry, "min-per-country", def.MinPerCountry, "minimum primary-year users per country")
	return func() synth.Config { return cfg }
}
