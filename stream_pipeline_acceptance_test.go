package picasso_test

import (
	"context"
	"testing"

	"picasso"
)

// TestStreamPipelinedAcceptance is the pipelining acceptance bar on the
// n=20k d=0.5 sweep instance: a pipelined streamed run under a 64 MiB budget
// must overlap every shard after the first, keep the tracked peak inside the
// budget, and produce the sequential stream's coloring bit for bit. Its
// wall-clock effect is a benchmark number, not a test assertion.
func TestStreamPipelinedAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance run")
	}
	const (
		n      = 20000
		shard  = 5000
		budget = int64(64) << 20
	)
	o := picasso.RandomGraph(n, 0.5, 11)
	ctx := context.Background()

	opts := picasso.Normal(3)
	oneShot, err := picasso.Run(ctx, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := picasso.Verify(o, oneShot.Colors); err != nil {
		t.Fatal(err)
	}

	seqOpts := opts
	seqOpts.ShardSize = shard
	seq, err := picasso.Stream(ctx, o, seqOpts)
	if err != nil {
		t.Fatal(err)
	}

	pipeOpts := seqOpts
	pipeOpts.PipelineShards = true
	pipeOpts.MemoryBudgetBytes = budget
	var tr picasso.MemoryTracker
	pipeOpts.Tracker = &tr
	pipe, err := picasso.Stream(ctx, o, pipeOpts)
	if err != nil {
		t.Fatal(err)
	}
	for v := range seq.Colors {
		if pipe.Colors[v] != seq.Colors[v] {
			t.Fatalf("pipelined coloring differs from sequential stream at vertex %d: %d vs %d",
				v, pipe.Colors[v], seq.Colors[v])
		}
	}
	if pipe.PipelinedShards != 3 {
		t.Errorf("PipelinedShards = %d, want 3 of 4 shards overlapped", pipe.PipelinedShards)
	}
	if tr.Peak() > budget {
		t.Errorf("tracked peak %d over the %d budget", tr.Peak(), budget)
	}
	if pipe.BudgetExceeded {
		t.Error("budget reported exceeded")
	}
	t.Logf("pipelined stream: %d shards overlapped (overlap %.2f)", pipe.PipelinedShards, pipe.OverlapRatio)
}
