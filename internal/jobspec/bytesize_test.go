package jobspec

import (
	"math"
	"testing"
)

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"123", 123, false},
		{"42B", 42, false},
		{"1KB", 1000, false},
		{"1KiB", 1024, false},
		{"512MiB", 512 << 20, false},
		{"512 MiB", 512 << 20, false},
		{"512mib", 512 << 20, false},
		{"2GB", 2_000_000_000, false},
		{"2GiB", 2 << 30, false},
		{"1.5GiB", 3 << 29, false},
		{"0.5MB", 500_000, false},
		{"3TiB", 3 << 40, false},
		{"3TB", 3_000_000_000_000, false},
		{"2g", 2 << 30, false},
		{"64m", 64 << 20, false},
		{"  256KiB  ", 256 << 10, false},
		// Negative sizes parse (FormatBytes round-trip); budget callers
		// reject them at their own layer (see TestSpecStreamKnobs).
		{"-1GB", -1_000_000_000, false},
		{"-1.5KiB", -1536, false},
		{"-0", 0, false},
		{"MiB", 0, true},
		{"twelve", 0, true},
		{"1QB", 0, true},
		{"1e30GB", 0, true},
		{"nan", 0, true},
		{"NaNMiB", 0, true},
		{"inf", 0, true},
		{"+InfGB", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseBytes(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseBytes(%q) = %d, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestParseBytesInt64Boundary(t *testing.T) {
	// The overflow guard at ±2^63. Historically `bytes > math.MaxInt64`
	// compared against 2^63 as a float64, so spellings that *round* to
	// exactly 2^63 ("9223372036854775807", "8589934592G") passed the guard
	// and hit the implementation-defined out-of-range float→int64
	// conversion. Both sides of the boundary are pinned here.
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		// Just inside the range: exact.
		{"9223372036854775807", math.MaxInt64, false},
		{"9223372036854775807B", math.MaxInt64, false},
		{"9223372036854775806", math.MaxInt64 - 1, false},
		{"8589934591G", 8589934591 << 30, false}, // 2^63 − 2^30
		{"9007199254740991KiB", (1 << 63) - 1024, false},
		{"9223372036854774784", (1 << 63) - 1024, false}, // largest float64 below 2^63
		// At or past 2^63: overflow, never a wrapped/garbage conversion.
		{"9223372036854775808", 0, true}, // 2^63 exactly
		{"9223372036854775808B", 0, true},
		{"8589934592G", 0, true}, // 8589934592 · 2^30 = 2^63
		{"9007199254740992KiB", 0, true},
		{"9223372036854775807.5", 0, true}, // fractional path rounds to 2^63
		{"16TB", 16_000_000_000_000, false},
		{"9300000000000000000", 0, true},
		// Negative boundary: −2^63 is representable, one below is not.
		{"-9223372036854775808", math.MinInt64, false},
		{"-9223372036854775808B", math.MinInt64, false},
		{"-9223372036854775809", 0, true},
		{"-8589934592G", math.MinInt64, false}, // −8589934592 · 2^30 = −2^63
		{"-8589934593G", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseBytes(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseBytes(%q) = %d, want overflow error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0B"},
		{1, "1B"},
		{999, "999B"},
		{1000, "1KB"},
		{1024, "1KiB"},
		{512 << 20, "512MiB"},
		{2_000_000_000, "2GB"},
		{2 << 30, "2GiB"},
		{3 << 40, "3TiB"},
		{1234567, "1234567B"},
		// Negative values: deterministic sign-prefixed magnitude rendering,
		// the same unit the magnitude would pick (Headroom() over budget).
		{-1, "-1B"},
		{-1024, "-1KiB"},
		{-1000, "-1KB"},
		{-512 << 20, "-512MiB"},
		{-1234567, "-1234567B"},
		{math.MinInt64 + 1, "-9223372036854775807B"},
		{math.MinInt64, "-9223372036854775808B"},
	}
	for _, tc := range cases {
		if got := FormatBytes(tc.in); got != tc.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	// ParseBytes(FormatBytes(n)) == n: the canonicalization contract the
	// spec normalizer relies on for stable cache keys.
	values := []int64{0, 1, 512, 1000, 1024, 1 << 20, 3 << 29, 2_000_000_000,
		512 << 20, 5_000_000, 123456789, 7 << 40,
		-1, -1024, -1000, -123456789, math.MaxInt64, math.MinInt64}
	for _, n := range values {
		s := FormatBytes(n)
		got, err := ParseBytes(s)
		if err != nil {
			t.Fatalf("ParseBytes(FormatBytes(%d) = %q): %v", n, s, err)
		}
		if got != n {
			t.Errorf("round trip %d -> %q -> %d", n, s, got)
		}
	}
}

func TestSpecStreamKnobs(t *testing.T) {
	// Budget strings normalize to their canonical spelling, shard/budget
	// imply streaming, and both land in the engine options.
	spec := Spec{Random: "1000:0.5", Seed: 1, Budget: "524288 kib"}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if spec.Budget != "512MiB" {
		t.Errorf("budget normalized to %q", spec.Budget)
	}
	if !spec.Streamed() {
		t.Error("budget did not imply streaming")
	}
	opts := spec.Options()
	if opts.MemoryBudgetBytes != 512<<20 {
		t.Errorf("options budget = %d", opts.MemoryBudgetBytes)
	}

	shardSpec := Spec{Random: "1000:0.5", Seed: 1, Shard: 250}
	if err := shardSpec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !shardSpec.Streamed() || shardSpec.Options().ShardSize != 250 {
		t.Error("shard knob not propagated")
	}

	bad := Spec{Random: "1000:0.5", Seed: 1, Budget: "lots"}
	if err := bad.Normalize(); err == nil {
		t.Error("unparseable budget accepted")
	}
	neg := Spec{Random: "1000:0.5", Seed: 1, Shard: -1}
	if err := neg.Normalize(); err == nil {
		t.Error("negative shard accepted")
	}

	// Two spellings of the same budget canonicalize to one job id basis.
	a := Spec{Random: "1000:0.5", Seed: 1, Budget: "1GiB"}
	b := Spec{Random: "1000:0.5", Seed: 1, Budget: "1048576KiB"}
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.Canonical() != b.Canonical() {
		t.Errorf("equivalent budgets canonicalize differently: %s vs %s", a.Canonical(), b.Canonical())
	}
}

func TestSpecConcurrencyKnobs(t *testing.T) {
	// Speculate implies streaming and lands in the engine options.
	s := Spec{Random: "1000:0.5", Seed: 1, Speculate: 3}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !s.Streamed() || s.Options().Speculate != 3 {
		t.Error("speculate knob not propagated")
	}

	// One lane is the sequential stream: canonicalized to the zero value,
	// so "speculate": 1 and an unset knob are the same job.
	one := Spec{Random: "1000:0.5", Seed: 1, Speculate: 1, Shard: 250}
	base := Spec{Random: "1000:0.5", Seed: 1, Shard: 250}
	if err := one.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	if one.Canonical() != base.Canonical() {
		t.Errorf("speculate=1 canonicalizes differently: %s vs %s", one.Canonical(), base.Canonical())
	}

	neg := Spec{Random: "1000:0.5", Seed: 1, Speculate: -2}
	if err := neg.Normalize(); err == nil {
		t.Error("negative speculate accepted")
	}
}
