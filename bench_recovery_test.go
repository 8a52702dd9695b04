// Benchmark for crash recovery: resuming a streamed run from a persisted
// checkpoint versus recoloring the same instance from scratch. CI
// publishes the comparison as BENCH_recovery.json — the number that
// justifies the journal's resume-not-restart policy.
package picasso_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"picasso"
)

// BenchmarkRecovery captures the engine's shard-boundary checkpoint at
// several depths of an n=20k d=0.5 streamed run (8 shards of 2500), then
// measures a resume (Options.Resume) from each — JSON decode included, since that is
// exactly what server recovery replays from a .ckpt sidecar — against the
// from-scratch baseline. Resume cost should scale with the shards that
// remain, not with the shards already paid for.
func BenchmarkRecovery(b *testing.B) {
	const (
		n     = 20000
		shard = 2500
	)
	o := picasso.RandomGraph(n, 0.5, 7)
	mkOpts := func(arena *picasso.Arena) picasso.Options {
		opts := picasso.Normal(7)
		opts.ShardSize = shard
		opts.Arena = arena
		return opts
	}

	// One instrumented run collects a checkpoint blob per shard boundary.
	ckpts := map[int][]byte{}
	setupOpts := mkOpts(picasso.NewArena())
	setupOpts.Checkpoint = func(st picasso.RunState) {
		if blob, err := json.Marshal(st); err == nil {
			ckpts[st.Shards] = blob
		}
	}
	ref, err := picasso.Stream(context.Background(), o, setupOpts)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("scratch", func(b *testing.B) {
		arena := picasso.NewArena()
		for i := 0; i < b.N; i++ {
			res, err := picasso.Stream(context.Background(), o, mkOpts(arena))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(res.NumColors), "colors")
				b.ReportMetric(float64(res.Shards), "shards")
			}
		}
	})
	for _, done := range []int{2, 4, 6} {
		blob, ok := ckpts[done]
		if !ok {
			b.Fatalf("no checkpoint at shard %d (have %d checkpoints)", done, len(ckpts))
		}
		b.Run(fmt.Sprintf("resume/after=%d", done), func(b *testing.B) {
			arena := picasso.NewArena()
			for i := 0; i < b.N; i++ {
				var st picasso.RunState
				if err := json.Unmarshal(blob, &st); err != nil {
					b.Fatal(err)
				}
				opts := mkOpts(arena)
				opts.Resume = &st
				res, err := picasso.Run(context.Background(), o, opts)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					if res.NumColors != ref.NumColors {
						b.Fatalf("resumed run diverged: %d colors, want %d", res.NumColors, ref.NumColors)
					}
					b.ReportMetric(float64(res.ResumedShards), "resumed-shards")
					b.ReportMetric(float64(res.Shards-res.ResumedShards), "colored-shards")
				}
			}
		})
	}
}
