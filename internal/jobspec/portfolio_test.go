package jobspec

import (
	"strings"
	"testing"

	"picasso"
)

func TestPortfolioNormalize(t *testing.T) {
	// A race implies the streaming engine.
	s := Spec{Random: "1000:0.5", Seed: 1, Portfolio: &PortfolioSpec{Entrants: 4}}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !s.Streamed() {
		t.Error("portfolio did not imply stream")
	}
	if opts := s.Options(); !opts.Stream || opts.Portfolio == nil || opts.Portfolio.Entrants != 4 {
		t.Errorf("Options() schedule: stream %v, portfolio %+v", opts.Stream, opts.Portfolio)
	}

	// One entrant is the plain run: the block canonicalizes away, so both
	// spellings share one canonical string (and therefore one job id).
	one := Spec{Random: "1000:0.5", Seed: 1, Stream: true, Portfolio: &PortfolioSpec{Entrants: 1}}
	if err := one.Normalize(); err != nil {
		t.Fatal(err)
	}
	plain := Spec{Random: "1000:0.5", Seed: 1, Stream: true}
	if err := plain.Normalize(); err != nil {
		t.Fatal(err)
	}
	if one.Portfolio != nil || one.Canonical() != plain.Canonical() {
		t.Errorf("entrants=1 canonical %q != plain %q", one.Canonical(), plain.Canonical())
	}

	// Normalize is idempotent on a portfolio spec.
	before := s.Canonical()
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Canonical() != before {
		t.Errorf("second Normalize changed canonical: %q -> %q", before, s.Canonical())
	}

	// Round-trip through the canonical form.
	back, err := ParseCanonical(before)
	if err != nil {
		t.Fatal(err)
	}
	if back.Portfolio == nil || back.Portfolio.Entrants != 4 {
		t.Errorf("round-tripped portfolio = %+v", back.Portfolio)
	}

	for _, bad := range []int{0, -2, picasso.MaxPortfolioEntrants + 1} {
		s := Spec{Random: "1000:0.5", Seed: 1, Portfolio: &PortfolioSpec{Entrants: bad}}
		if err := s.Normalize(); err == nil {
			t.Errorf("entrants=%d accepted", bad)
		} else if !strings.Contains(err.Error(), "entrants") {
			t.Errorf("entrants=%d: unhelpful error %v", bad, err)
		}
	}
}
