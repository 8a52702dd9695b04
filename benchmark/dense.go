package main

import (
	"context"
	"math/rand"
	"strconv"
	"time"

	"picasso"
	"picasso/internal/jobspec"
	"picasso/internal/memtrack"
)

// denseStreamRefine is the paper's memory trade at full length: a hashed
// dense random graph streamed sequentially under a memory budget below the
// one-shot peak, then refined. Each job of the fixed set is a different
// graph seed (the random source seeds graph and engine alike).
type denseStreamRefine struct {
	graph   string // jobspec "n:density"
	budget  string // jobspec byte size for the streamed pass
	seeds   []int64
	oracles []picasso.Oracle // built by setup, one per seed
	arena   *picasso.Arena
}

// The streamed budgets are fixed byte sizes below each graph size's one-shot
// tracked peak, which is deterministic per graph seed. Measured one-shot
// Normal peaks (GOMAXPROCS 2, six seeds): 20000:0.5 peaks at 27.52–27.54 MB,
// so 10 MiB is 38% of it; 1500:0.5 peaks at 1.18–1.19 MB, so 448 KiB is 39%.
// TestDenseBudgetBelowOneShotPeak re-checks the small one.
const (
	denseBudget     = "10MiB"
	denseTinyBudget = "448KiB"
)

func newDenseStreamRefine(cfg config) *denseStreamRefine {
	w := &denseStreamRefine{graph: "20000:0.5", budget: denseBudget, arena: picasso.NewArena()}
	jobs := 2
	if cfg.tiny {
		w.graph, w.budget = "1500:0.5", denseTinyBudget
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < jobs; i++ {
		w.seeds = append(w.seeds, 1+rng.Int63n(1<<31))
	}
	return w
}

func (w *denseStreamRefine) fixedJobs() int { return len(w.seeds) }

// setup builds the fixed set's graphs.
func (w *denseStreamRefine) setup(rec *recorder, parent int) error {
	w.oracles = w.oracles[:0]
	for i, seed := range w.seeds {
		spec := jobspec.Spec{Random: w.graph, Seed: seed}
		if err := spec.Normalize(); err != nil {
			return err
		}
		bs := rec.begin("jobspec.build_input", parent, strconv.Itoa(i))
		oracle, _, err := spec.BuildInput()
		rec.end(bs)
		if err != nil {
			return err
		}
		w.oracles = append(w.oracles, oracle)
	}
	return nil
}

func (w *denseStreamRefine) job(ctx context.Context, i int, tb *timedBuilder, rec *recorder, parent int) (*jobRecord, error) {
	id := strconv.Itoa(i)
	t0 := time.Now()
	ns := rec.begin("jobspec.normalize", parent, id)
	spec := jobspec.Spec{Random: w.graph, Seed: w.seeds[i], Budget: w.budget}
	err := spec.Normalize()
	_ = spec.Canonical()
	rec.end(ns)
	if err != nil {
		return nil, err
	}
	in := input{oracle: w.oracles[i]}
	opts := spec.Options()
	opts.Arena = w.arena
	streamTr, refineTr := &memtrack.Tracker{}, &memtrack.Tracker{}

	opts.Tracker = streamTr
	es := rec.begin("engine.color", parent, id)
	if tb != nil {
		tb.parent, tb.job = es, id
		opts.Builder, opts.Workers = tb, tb.workers
	}
	res, err := colorRun(ctx, in, opts, true)
	rec.end(es)
	if err != nil {
		return nil, err
	}

	opts.Tracker = refineTr
	rs := rec.begin("engine.refine", parent, id)
	if tb != nil {
		tb.parent = rs
	}
	rst, err := refineRun(ctx, in, res.Colors, opts, picasso.RefineOptions{})
	rec.end(rs)
	if err != nil {
		return nil, err
	}
	return &jobRecord{
		in: in, coloring: rst.Colors, colors: rst.ColorsAfter, wall: time.Since(t0),
		peak:   max(res.HostPeakBytes, rst.HostPeakBytes),
		exceed: streamTr.Exceedances() + refineTr.Exceedances(),
		res:    res, rst: rst,
	}, nil
}
