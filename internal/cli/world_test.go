package cli

import (
	"errors"
	"flag"
	"io"
	"reflect"
	"testing"

	"github.com/nwca/broadband/internal/synth"
)

func TestWorldFlags(t *testing.T) {
	def := synth.Config{Seed: 7, Users: 1000, FCCUsers: 250, Days: 2, SwitchTarget: 200, MinPerCountry: 10, DisableQoE: true}
	cases := []struct {
		name    string
		args    []string
		want    synth.Config
		wantErr bool // synth.Build must reject want with a *synth.ConfigError
	}{
		{"defaults", nil, def, false},
		{"overrides", []string{"-users", "10", "-min-per-country", "0", "-workers", "1"},
			synth.Config{Seed: 7, Users: 10, FCCUsers: 250, Days: 2, SwitchTarget: 200, MinPerCountry: 0, Workers: 1, DisableQoE: true}, false},
		{"every flag", []string{"-users", "1", "-fcc", "2", "-days", "3", "-switches", "4", "-min-per-country", "5", "-workers", "6"},
			synth.Config{Seed: 7, Users: 1, FCCUsers: 2, Days: 3, SwitchTarget: 4, MinPerCountry: 5, Workers: 6, DisableQoE: true}, false},
		{"negative size", []string{"-users", "-5"},
			synth.Config{Seed: 7, Users: -5, FCCUsers: 250, Days: 2, SwitchTarget: 200, MinPerCountry: 10, DisableQoE: true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			world := WorldFlags(fs, def)

			var names []string
			fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
			if want := []string{"days", "fcc", "min-per-country", "switches", "users", "workers"}; !reflect.DeepEqual(names, want) {
				t.Fatalf("registered %v, want %v", names, want)
			}
			for name, want := range map[string]string{"users": "1000", "fcc": "250", "days": "2", "switches": "200", "min-per-country": "10", "workers": "0"} {
				if got := fs.Lookup(name).DefValue; got != want {
					t.Errorf("-%s default %q, want %q", name, got, want)
				}
			}

			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got := world()
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parsed %+v, want %+v", got, tc.want)
			}
			if !tc.wantErr {
				return
			}
			var ce *synth.ConfigError
			if _, err := synth.Build(got); !errors.As(err, &ce) {
				t.Fatalf("synth.Build(%+v) = %v, want a *synth.ConfigError", got, err)
			}
		})
	}
}
