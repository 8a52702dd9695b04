package core

import (
	"context"
	"errors"
	"testing"

	"picasso/internal/gpusim"
	"picasso/internal/graph"
)

// Schedule shorthands for the tests: each returns a copy of opts with one
// schedule field of Run set.

func streamed(opts Options) Options { opts.Stream = true; return opts }

func frozen(opts Options, prev graph.Coloring) Options { opts.Frozen = prev; return opts }

func resumed(opts Options, st *RunState) Options { opts.Resume = st; return opts }

func refining(opts Options, prev graph.Coloring, r RefineOptions) Options {
	opts.Frozen, opts.Refine = prev, &r
	return opts
}

func onDevices(opts Options, devs []*gpusim.Device) Options {
	opts.Device, opts.Backend, opts.multiDevices = nil, "multigpu", devs
	return opts
}

// refineStats unpacks the refinement record of a refine-only Run.
func refineStats(res *Result, err error) (*RefineStats, error) {
	if err != nil {
		return nil, err
	}
	return res.Refine, nil
}

// TestRunScheduleContract pins which schedule combinations Run accepts.
// Combinations no single run can honor fail with a *ScheduleError; the
// arguments the schedule fields carry keep their own checks; every other
// combination runs and yields a proper coloring.
func TestRunScheduleContract(t *testing.T) {
	ctx := context.Background()
	o := graph.RandomOracle{N: 300, P: 0.5, Seed: 5}
	var ckpt *RunState
	opts := streamed(Normal(2))
	opts.ShardSize = 100
	opts.Checkpoint = func(st RunState) {
		if ckpt == nil {
			ckpt = &st
		}
	}
	full, err := Run(ctx, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint = nil
	prefix := full.Colors[:150]
	holed := append(graph.Coloring(nil), prefix...)
	holed[7] = graph.Uncolored
	stale := *ckpt
	stale.Active = []int32{int32(stale.NextStart)}
	race := &PortfolioOptions{Entrants: 2}

	rejected := []struct {
		name     string
		opts     Options
		schedule bool // want a *ScheduleError
	}{
		{"Frozen with Resume", resumed(frozen(opts, prefix), ckpt), true},
		{"Portfolio with Frozen", Options{Stream: true, Portfolio: race, Frozen: prefix}, true},
		{"Portfolio with Resume", Options{Stream: true, Portfolio: race, Resume: ckpt}, true},
		{"one-shot Portfolio with the bound", Options{Portfolio: race}, true},
		{"Frozen longer than n", frozen(opts, append(full.Colors, 0)), false},
		{"Frozen with an uncolored vertex", frozen(opts, holed), false},
		{"refine input short of n", refining(opts, prefix, RefineOptions{}), false},
		{"Resume not resumable", resumed(opts, &stale), false},
	}
	for _, c := range rejected {
		c.opts.PaletteFrac, c.opts.Alpha = 0.125, 2
		_, err := Run(ctx, o, c.opts)
		var se *ScheduleError
		if err == nil || errors.As(err, &se) != c.schedule {
			t.Errorf("%s: err %v, want schedule error %v", c.name, err, c.schedule)
		}
	}

	accepted := map[string]Options{
		"Stream then Refine":         func() Options { o := opts; o.Refine = &RefineOptions{Rounds: 2}; return o }(),
		"Resume then Refine":         func() Options { o := resumed(opts, ckpt); o.Refine = &RefineOptions{Rounds: 2}; return o }(),
		"Frozen prefix":              frozen(opts, prefix),
		"Frozen full then Refine":    refining(opts, full.Colors, RefineOptions{Rounds: 2}),
		"one-shot Portfolio unbound": {PaletteFrac: 0.125, Alpha: 2, Portfolio: &PortfolioOptions{Entrants: 2, DisableBound: true}},
		"streamed Portfolio":         {PaletteFrac: 0.125, Alpha: 2, Stream: true, ShardSize: 100, Portfolio: race},
	}
	for name, ao := range accepted {
		res, err := Run(ctx, o, ao)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := graph.VerifyOracle(o, res.Colors); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if (ao.Refine != nil) != (res.Refine != nil) || (ao.Portfolio != nil) != (res.Portfolio != nil) {
			t.Errorf("%s: phase records refine %v portfolio %v", name, res.Refine != nil, res.Portfolio != nil)
		}
	}
}
