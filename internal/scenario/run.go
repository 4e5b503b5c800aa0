package scenario

import (
	"context"
	"fmt"

	"github.com/nwca/broadband/internal/experiments"
	"github.com/nwca/broadband/internal/golden"
	"github.com/nwca/broadband/internal/synth"
)

// Options parameterizes a scenario run.
type Options struct {
	// Base is the baseline world config. Its Seed is ignored; every world
	// is built once per entry of Seeds.
	Base synth.Config
	// Seeds lists the seeds every pack asserts at (at least one).
	Seeds []uint64
}

// Outcome is one evaluated assertion at one seed.
type Outcome struct {
	Seed     uint64 `json:"seed"`
	Artifact string `json:"artifact"`
	Check    string `json:"check"`
	Op       string `json:"op"`
	Pass     bool   `json:"pass"`
	// Msg explains a failure (empty on pass).
	Msg string `json:"msg,omitempty"`
}

// Name is the display label of the assertion: pack/artifact-slug/check.
func (o Outcome) Name(pack string) string {
	return fmt.Sprintf("%s/%s/%s", pack, golden.Slug(o.Artifact), o.Check)
}

// PackResult collects the outcomes of one pack across all seeds.
type PackResult struct {
	Name        string    `json:"name"`
	Description string    `json:"description,omitempty"`
	Outcomes    []Outcome `json:"outcomes"`
	Passed      int       `json:"passed"`
	Failed      int       `json:"failed"`
}

// WorldScale echoes the world dimensions a report was computed at. It
// carries no timings or host data: the report must be byte-identical
// across machines and GOMAXPROCS settings.
type WorldScale struct {
	Users         int `json:"users"`
	FCCUsers      int `json:"fcc_users"`
	Days          int `json:"days"`
	SwitchTarget  int `json:"switch_target"`
	MinPerCountry int `json:"min_per_country"`
}

// Report is the full run outcome, rendered by Render and serialized by the
// -json flag.
type Report struct {
	Seeds  []uint64     `json:"seeds"`
	World  WorldScale   `json:"world"`
	Packs  []PackResult `json:"packs"`
	Passed int          `json:"passed"`
	Failed int          `json:"failed"`
}

// OK reports whether every assertion passed.
func (r *Report) OK() bool { return r.Failed == 0 }

// Run builds the baseline and every pack's counterfactual world at every
// seed, one world at a time, computes the referenced registry artifacts
// through the shared registry fan-out, and evaluates all expectations.
// Parallelism is GOMAXPROCS — each build and each artifact set uses every
// core; bound it with the environment variable. The outcome order is
// fixed — packs in input order, expectations in declaration order, seeds
// in input order — so the report is deterministic whatever the
// parallelism.
func Run(ctx context.Context, packs []*Pack, opt Options) (*Report, error) {
	if len(packs) == 0 {
		return nil, fmt.Errorf("scenario: no packs to run")
	}
	if len(opt.Seeds) == 0 {
		return nil, fmt.Errorf("scenario: no seeds")
	}

	// The baseline world serves every differential check, so it computes
	// the union of all referenced artifacts; each scenario world computes
	// only its own.
	baseIDs := unionArtifacts(packs)

	// One job per (world, seed): index 0 is the baseline, 1..P the packs.
	type job struct {
		cfg     synth.Config
		entries []experiments.Entry
		vals    map[string]*golden.Value
	}
	worlds := 1 + len(packs)
	jobs := make([]job, worlds*len(opt.Seeds))
	for pi := 0; pi < worlds; pi++ {
		cfg, ids := opt.Base, baseIDs
		if pi > 0 {
			var err error
			if cfg, err = packs[pi-1].Apply(opt.Base); err != nil {
				return nil, err
			}
			ids = packs[pi-1].artifacts()
		}
		entries := make([]experiments.Entry, len(ids))
		for k, id := range ids {
			e, ok := experiments.Lookup(id)
			if !ok {
				return nil, fmt.Errorf("scenario: unknown artifact %q", id)
			}
			entries[k] = e
		}
		for si, seed := range opt.Seeds {
			cfg.Seed = seed
			jobs[pi*len(opt.Seeds)+si] = job{cfg: cfg, entries: entries}
		}
	}

	for i := range jobs {
		j := &jobs[i]
		w, err := synth.BuildCtx(ctx, j.cfg)
		if err != nil {
			return nil, fmt.Errorf("scenario: world (seed %d): %w", j.cfg.Seed, err)
		}
		vals, _, err := experiments.RunEach(ctx, j.entries, func(e experiments.Entry) (*golden.Value, error) {
			rep, err := experiments.RunAt(e, &w.Data, j.cfg.Seed)
			if err != nil {
				return nil, err
			}
			return golden.ToValue(rep)
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: seed %d: %w", j.cfg.Seed, err)
		}
		j.vals = make(map[string]*golden.Value, len(vals))
		for k, e := range j.entries {
			j.vals[e.ID] = vals[k]
		}
	}

	base := opt.Base.WithDefaults()
	rep := &Report{
		Seeds: append([]uint64(nil), opt.Seeds...),
		World: WorldScale{
			Users:         base.Users,
			FCCUsers:      base.FCCUsers,
			Days:          base.Days,
			SwitchTarget:  base.SwitchTarget,
			MinPerCountry: base.MinPerCountry,
		},
	}
	for pi, p := range packs {
		pr := PackResult{Name: p.Name, Description: p.Description}
		for _, e := range p.Expect {
			for _, c := range e.Checks {
				for si, seed := range opt.Seeds {
					baseVals := jobs[si].vals // world 0 = baseline
					scenVals := jobs[(pi+1)*len(opt.Seeds)+si].vals
					msg := evalOne(baseVals[e.Artifact], scenVals[e.Artifact], c)
					o := Outcome{
						Seed: seed, Artifact: e.Artifact, Check: c.Name,
						Op: c.Op, Pass: msg == "", Msg: msg,
					}
					if o.Pass {
						pr.Passed++
					} else {
						pr.Failed++
					}
					pr.Outcomes = append(pr.Outcomes, o)
				}
			}
		}
		rep.Packs = append(rep.Packs, pr)
		rep.Passed += pr.Passed
		rep.Failed += pr.Failed
	}
	return rep, nil
}

// evalOne evaluates a single check: differential ops against the baseline
// tree, plain golden ops against the scenario tree alone.
func evalOne(base, scen *golden.Value, c golden.Check) string {
	if c.Differential() {
		return golden.EvalDiffCheck(base, scen, c)
	}
	if viols := golden.EvalChecks(scen, []golden.Check{c}, false); len(viols) > 0 {
		return viols[0].Msg
	}
	return ""
}

// unionArtifacts merges the artifact lists of all packs, deduplicated in
// first-reference order.
func unionArtifacts(packs []*Pack) []string {
	var ids []string
	seen := make(map[string]bool)
	for _, p := range packs {
		for _, id := range p.artifacts() {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	return ids
}
