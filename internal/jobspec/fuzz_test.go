package jobspec

import (
	"math"
	"math/big"
	"strings"
	"testing"
)

// FuzzParseBytesRoundTrip asserts the canonicalization contract the spec
// normalizer and every budget-rendering caller rely on:
// ParseBytes(FormatBytes(n)) == n for arbitrary int64, including negatives
// (a crossed budget's headroom) and the ±2^63 boundary.
func FuzzParseBytesRoundTrip(f *testing.F) {
	for _, n := range []int64{
		0, 1, -1, 512, 1000, 1023, 1024, -1024, 1 << 20, 3 << 29,
		512 << 20, 2_000_000_000, 7 << 40, 123456789, -123456789,
		(1 << 63) - 1024, math.MaxInt64 - 1, math.MaxInt64,
		math.MinInt64, math.MinInt64 + 1, 1 << 62, -(1 << 62),
	} {
		f.Add(n)
	}
	f.Fuzz(func(t *testing.T, n int64) {
		s := FormatBytes(n)
		got, err := ParseBytes(s)
		if err != nil {
			t.Fatalf("ParseBytes(FormatBytes(%d) = %q): %v", n, s, err)
		}
		if got != n {
			t.Fatalf("round trip %d -> %q -> %d", n, s, got)
		}
	})
}

// FuzzParseBytes asserts ParseBytes never panics and never silently wraps.
// The wrap check needs a real oracle — the round trip alone would also
// hold for a wrapped value — so integral spellings are recomputed in
// arbitrary-precision arithmetic and compared: an accepted integer count
// times its unit must equal the result exactly and fit int64.
func FuzzParseBytes(f *testing.F) {
	for _, s := range []string{
		"", "0", "123", "42B", "1KiB", "512 MiB", "1.5GiB", "2g",
		"9223372036854775807", "9223372036854775808", "8589934592G",
		"8589934591G", "9007199254740992KiB", "-9223372036854775808B",
		"nan", "NaNMiB", "inf", "+InfGB", "-inf", "B", "KiB", "MiB",
		"twelve", "1QB", "1e30GB", "-1GB", "--5B", "0x5p0", "9e18",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseBytes(s)
		if err != nil {
			return // rejected inputs carry no contract beyond not panicking
		}
		rt, err := ParseBytes(FormatBytes(n))
		if err != nil || rt != n {
			t.Fatalf("ParseBytes(%q) = %d, but its rendering re-parses to (%d, %v)", s, n, rt, err)
		}
		// Big-integer oracle: split off the unit exactly as ParseBytes does
		// (same package, same table) and recompute integral counts without
		// any fixed-width arithmetic.
		lower := strings.ToLower(strings.TrimSpace(s))
		num := lower
		mult := int64(1)
		for _, u := range byteUnits {
			if strings.HasSuffix(lower, u.suffix) {
				mult = u.mult
				num = strings.TrimSpace(lower[:len(lower)-len(u.suffix)])
				break
			}
		}
		if i, ok := new(big.Int).SetString(num, 10); ok {
			want := new(big.Int).Mul(i, big.NewInt(mult))
			if !want.IsInt64() {
				t.Fatalf("ParseBytes(%q) accepted an out-of-int64-range size as %d", s, n)
			}
			if got := want.Int64(); n != got {
				t.Fatalf("ParseBytes(%q) = %d, exact arithmetic says %d (silent wrap)", s, n, got)
			}
		}
	})
}
