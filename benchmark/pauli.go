package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"picasso"
	"picasso/internal/jobspec"
	"picasso/internal/memtrack"
)

// pauliTable2 is the paper's headline application: one Table II molecule
// instance grouped one-shot in Normal mode, once per engine seed of a fixed
// set, each job submitted as an {"instance", "seed"} spec.
type pauliTable2 struct {
	instance string
	seeds    []int64
	set      *picasso.PauliSet
	arena    *picasso.Arena
}

func newPauliTable2(cfg config) *pauliTable2 {
	w := &pauliTable2{instance: "H6 2D sto3g", arena: picasso.NewArena()}
	jobs := 8
	if cfg.tiny {
		w.instance, jobs = "H4 1D sto3g", 2
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < jobs; i++ {
		w.seeds = append(w.seeds, 1+rng.Int63n(1<<31))
	}
	return w
}

func (w *pauliTable2) fixedJobs() int { return len(w.seeds) }

// setup normalizes the instance spec and builds its Pauli strings.
func (w *pauliTable2) setup(rec *recorder, parent int) error {
	spec := jobspec.Spec{Instance: w.instance, Seed: w.seeds[0]}
	if err := spec.Normalize(); err != nil {
		return err
	}
	bs := rec.begin("jobspec.build_input", parent, "")
	_, set, err := spec.BuildInput()
	rec.end(bs)
	if err != nil {
		return err
	}
	if set == nil {
		return fmt.Errorf("instance %q built no Pauli set", w.instance)
	}
	w.set = set
	return nil
}

func (w *pauliTable2) job(ctx context.Context, i int, tb *timedBuilder, rec *recorder, parent int) (*jobRecord, error) {
	id := strconv.Itoa(i)
	t0 := time.Now()
	ns := rec.begin("jobspec.normalize", parent, id)
	spec := jobspec.Spec{Instance: w.instance, Seed: w.seeds[i]}
	err := spec.Normalize()
	_ = spec.Canonical()
	rec.end(ns)
	if err != nil {
		return nil, err
	}
	opts := spec.Options()
	opts.Tracker = &memtrack.Tracker{}
	opts.Arena = w.arena
	es := rec.begin("engine.color", parent, id)
	if tb != nil {
		tb.parent, tb.job = es, id
		opts.Builder, opts.Workers = tb, tb.workers
	}
	in := input{set: w.set}
	res, err := colorRun(ctx, in, opts, false)
	rec.end(es)
	if err != nil {
		return nil, err
	}
	return &jobRecord{
		in: in, coloring: res.Colors, colors: res.NumColors, wall: time.Since(t0),
		peak: res.HostPeakBytes, res: res,
	}, nil
}
