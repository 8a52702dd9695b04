package jobspec

import (
	"strings"
	"testing"
	"time"

	"picasso"
)

func TestNormalizeTable(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		wantErr string // substring; "" = success
	}{
		{"no input", Spec{}, "no input"},
		{"two inputs", Spec{Random: "100:0.5", Instance: "H6 3D sto3g"}, "exactly one"},
		{"random ok", Spec{Random: "100:0.5"}, ""},
		{"random missing colon", Spec{Random: "100"}, "n:density"},
		{"random bad n", Spec{Random: "x:0.5"}, "bad vertex count"},
		{"random zero n", Spec{Random: "0:0.5"}, "bad vertex count"},
		{"random negative n", Spec{Random: "-5:0.5"}, "bad vertex count"},
		{"random bad density", Spec{Random: "100:abc"}, "bad density"},
		{"random density over 1", Spec{Random: "100:1.5"}, "bad density"},
		{"random with target", Spec{Random: "100:0.5", Target: 10}, "only to molecule"},
		{"instance ok", Spec{Instance: "H6 3D sto3g"}, ""},
		{"instance fuzzy", Spec{Instance: "h6  3d STO3G"}, ""},
		{"instance non-table molecule", Spec{Instance: "H2 1D sto3g"}, ""},
		{"unknown molecule", Spec{Instance: "H6 3D sto3h"}, "did you mean"},
		{"garbage molecule", Spec{Instance: "benzene"}, "did you mean"},
		{"strings ok", Spec{Strings: []string{"IXYZ", "XXII"}}, ""},
		{"strings blank entry", Spec{Strings: []string{"IXYZ", "  "}}, "empty"},
		{"strings with target", Spec{Strings: []string{"IXYZ"}, Target: 5}, "only to molecule"},
		{"negative target", Spec{Instance: "H6 3D sto3g", Target: -1}, "negative target"},
		{"bad mode", Spec{Random: "100:0.5", Mode: "fast"}, "unknown mode"},
		{"custom needs p", Spec{Random: "100:0.5", Mode: "custom", Alpha: 2}, "palette fraction"},
		{"custom needs alpha", Spec{Random: "100:0.5", Mode: "custom", PFrac: 0.1}, "positive alpha"},
		{"custom ok", Spec{Random: "100:0.5", Mode: "custom", PFrac: 0.1, Alpha: 2}, ""},
		{"bad strategy", Spec{Random: "100:0.5", Strategy: "bogus"}, "unknown strategy"},
		{"bad backend", Spec{Random: "100:0.5", Backend: "tpu"}, "unknown backend"},
		{"negative workers", Spec{Random: "100:0.5", Workers: -1}, "negative workers"},
		{"negative budget", Spec{Random: "100:0.5", Budget: "-1GiB"}, "negative budget"},
		{"refine ok", Spec{Random: "100:0.5", Refine: &RefineSpec{Rounds: 3}}, ""},
		{"refine empty ok", Spec{Random: "100:0.5", Refine: &RefineSpec{}}, ""},
		{"refine negative rounds", Spec{Random: "100:0.5", Refine: &RefineSpec{Rounds: -1}}, "negative refine rounds"},
		{"refine negative target", Spec{Random: "100:0.5", Refine: &RefineSpec{TargetColors: -1}}, "negative refine target"},
		{"refine bad budget", Spec{Random: "100:0.5", Refine: &RefineSpec{Budget: "lots"}}, "bad byte size"},
		{"refine negative budget", Spec{Random: "100:0.5", Refine: &RefineSpec{Budget: "-1KiB"}}, "negative refine budget"},
		{"deadline ok", Spec{Random: "100:0.5", Deadline: "90s"}, ""},
		{"deadline garbage", Spec{Random: "100:0.5", Deadline: "soon"}, "bad deadline"},
		{"deadline zero", Spec{Random: "100:0.5", Deadline: "0s"}, "must be positive"},
		{"deadline negative", Spec{Random: "100:0.5", Deadline: "-5s"}, "must be positive"},
		{"retries ok", Spec{Random: "100:0.5", Retries: 3}, ""},
		{"retries negative", Spec{Random: "100:0.5", Retries: -1}, "negative retries"},
		{"retries over cap", Spec{Random: "100:0.5", Retries: 17}, "exceeds the cap"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Normalize()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Normalize: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Normalize = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

func TestSpecRefineBlock(t *testing.T) {
	// The refine block normalizes its budget to the canonical spelling,
	// translates into engine options, and distinguishes canonical forms.
	spec := Spec{Random: "1000:0.5", Seed: 1, Budget: "8MiB",
		Refine: &RefineSpec{Rounds: 5, TargetColors: 100, Budget: "2048 kib"}}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if spec.Refine.Budget != "2MiB" {
		t.Errorf("refine budget normalized to %q", spec.Refine.Budget)
	}
	ropts := spec.Options().Refine
	if ropts == nil || ropts.Rounds != 5 || ropts.TargetColors != 100 || ropts.BudgetBytes != 2<<20 {
		t.Errorf("Options().Refine = %+v", ropts)
	}

	// Without its own budget the refinement inherits the job's.
	inherit := Spec{Random: "1000:0.5", Seed: 1, Budget: "8MiB", Refine: &RefineSpec{}}
	if err := inherit.Normalize(); err != nil {
		t.Fatal(err)
	}
	if opts := inherit.Options(); opts.Refine == nil || opts.Refine.BudgetBytes != 0 || opts.MemoryBudgetBytes != 8<<20 {
		t.Errorf("inherited refine budget: Refine %+v, run budget %d", opts.Refine, opts.MemoryBudgetBytes)
	}

	// No refine block: no refinement.
	plain := Spec{Random: "1000:0.5", Seed: 1}
	if err := plain.Normalize(); err != nil {
		t.Fatal(err)
	}
	if plain.Options().Refine != nil {
		t.Error("plain spec reports a refinement")
	}

	// The block is part of the canonical form (a refined job is a
	// different job), and equivalent spellings of it collide.
	if plain.Canonical() == inherit.Canonical() {
		t.Error("refine block absent from the canonical form")
	}
	other := Spec{Random: "1000:0.5", Seed: 1, Budget: "8192 KiB", Refine: &RefineSpec{}}
	if err := other.Normalize(); err != nil {
		t.Fatal(err)
	}
	if other.Canonical() != inherit.Canonical() {
		t.Errorf("equivalent refine specs canonicalize differently:\n%s\n%s",
			other.Canonical(), inherit.Canonical())
	}
}

// TestCanonicalCollisions verifies that specs spelling the same job
// differently normalize to one canonical string — the cache-hit property
// the service depends on — and that genuinely different jobs stay distinct.
func TestCanonicalCollisions(t *testing.T) {
	canon := func(s Spec) string {
		t.Helper()
		if err := s.Normalize(); err != nil {
			t.Fatalf("Normalize(%+v): %v", s, err)
		}
		return s.Canonical()
	}
	same := [][2]Spec{
		{{Random: "100:0.5"}, {Random: "100:0.50", Mode: "normal", Backend: "auto"}},
		{{Instance: "H6 3D sto3g"}, {Instance: "  h6 3d STO3G "}},
		{{Random: "100:0.5", Strategy: "dynamic"}, {Random: "100:0.5"}},
		// Named modes ignore the custom-mode knobs.
		{{Random: "100:0.5", Mode: "normal", PFrac: 0.3, Alpha: 9}, {Random: "100:0.5"}},
	}
	for i, pair := range same {
		if a, b := canon(pair[0]), canon(pair[1]); a != b {
			t.Errorf("case %d: canonical forms differ:\n  %s\n  %s", i, a, b)
		}
	}
	diff := [][2]Spec{
		{{Random: "100:0.5"}, {Random: "100:0.5", Seed: 7}},
		{{Random: "100:0.5"}, {Random: "101:0.5"}},
		{{Random: "100:0.5"}, {Random: "100:0.5", Mode: "aggressive"}},
		{{Random: "100:0.5"}, {Random: "100:0.5", Backend: "sequential"}},
	}
	for i, pair := range diff {
		if a, b := canon(pair[0]), canon(pair[1]); a == b {
			t.Errorf("distinct case %d: canonical forms collide: %s", i, a)
		}
	}
}

func TestOptionsFromSpec(t *testing.T) {
	s := Spec{Random: "100:0.5", Mode: "aggressive", Backend: "parallel", Seed: 9, Workers: 3}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	opts := s.Options()
	want := picasso.Aggressive(9)
	if opts.PaletteFrac != want.PaletteFrac || opts.Alpha != want.Alpha || opts.Seed != 9 {
		t.Fatalf("aggressive options not applied: %+v", opts)
	}
	if opts.Backend != "parallel" || opts.Workers != 3 {
		t.Fatalf("backend/workers not applied: %+v", opts)
	}

	c := Spec{Random: "100:0.5", Mode: "custom", PFrac: 0.2, Alpha: 1.5}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	copts := c.Options()
	if copts.PaletteFrac != 0.2 || copts.Alpha != 1.5 {
		t.Fatalf("custom options not applied: %+v", copts)
	}
}

func TestBuildInputRandom(t *testing.T) {
	s := Spec{Random: "50:0.5", Seed: 3}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	oracle, set, err := s.BuildInput()
	if err != nil {
		t.Fatal(err)
	}
	if set != nil || oracle == nil {
		t.Fatal("random spec should yield an oracle, no set")
	}
	if oracle.NumVertices() != 50 {
		t.Fatalf("NumVertices = %d", oracle.NumVertices())
	}
	if s.NumVertices() != 50 {
		t.Fatalf("Spec.NumVertices = %d", s.NumVertices())
	}
}

func TestBuildInputStrings(t *testing.T) {
	s := Spec{Strings: []string{"IXYZ", "XXII", "ZZYX"}}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	oracle, set, err := s.BuildInput()
	if err != nil {
		t.Fatal(err)
	}
	if oracle != nil || set == nil {
		t.Fatal("strings spec should yield a set, no oracle")
	}
	if set.Len() != 3 || set.Qubits() != 4 {
		t.Fatalf("set %d strings on %d qubits", set.Len(), set.Qubits())
	}
}

func TestReadPauliLines(t *testing.T) {
	cases := []struct {
		name    string
		input   string
		want    []string
		wantErr string
	}{
		{"plain", "IXYZ\nXXII\n", []string{"IXYZ", "XXII"}, ""},
		{"crlf", "IXYZ\r\nXXII\r\n", []string{"IXYZ", "XXII"}, ""},
		{"comments and blanks", "# header\n\nIXYZ\n   \nXXII\n", []string{"IXYZ", "XXII"}, ""},
		{"coefficients", "IXYZ 0.25\nXXII -1.5\n", []string{"IXYZ", "XXII"}, ""},
		{"surrounding space", "  IXYZ  \n\tXXII\n", []string{"IXYZ", "XXII"}, ""},
		{"no trailing newline", "IXYZ", []string{"IXYZ"}, ""},
		{"empty file", "", nil, "no Pauli strings"},
		{"only comments", "# a\n# b\n", nil, "no Pauli strings"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := ReadPauliLines(strings.NewReader(c.input))
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(c.want) {
				t.Fatalf("got %v, want %v", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("got %v, want %v", got, c.want)
				}
			}
		})
	}
}

func TestParseRandomCanonicalization(t *testing.T) {
	s := Spec{Random: " 100 : 0.5 "}
	if err := s.Normalize(); err != nil {
		t.Fatalf("Normalize tolerant spacing: %v", err)
	}
	if s.Random != "100:0.5" {
		t.Fatalf("canonical random = %q", s.Random)
	}
}

func TestDeadlineCanonicalization(t *testing.T) {
	// "90s" and "1m30s" must be the same job: one canonical spelling.
	a := Spec{Random: "100:0.5", Deadline: "90s"}
	b := Spec{Random: "100:0.5", Deadline: "1m30s"}
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.Canonical() != b.Canonical() {
		t.Fatalf("canonical forms differ:\n  %s\n  %s", a.Canonical(), b.Canonical())
	}
	if d := a.DeadlineDuration(); d != 90*time.Second {
		t.Fatalf("DeadlineDuration = %v, want 90s", d)
	}
	// Normalize must be idempotent on the canonical spelling.
	before := a.Canonical()
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.Canonical() != before {
		t.Fatalf("Normalize not idempotent: %s -> %s", before, a.Canonical())
	}
	var none Spec
	none.Random = "100:0.5"
	if err := none.Normalize(); err != nil {
		t.Fatal(err)
	}
	if none.DeadlineDuration() != 0 {
		t.Fatal("zero spec should have no deadline")
	}
}
