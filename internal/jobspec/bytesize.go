package jobspec

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Byte-size parsing for the memory-budget knobs: flags and job specs say
// "512MiB" or "2GB", the engine wants int64 bytes. Binary units (KiB, MiB,
// GiB, TiB) are powers of 1024, decimal units (KB, MB, GB, TB) powers of
// 1000, matching their SI/IEC meanings; unit matching is case-insensitive
// and tolerates a space ("512 MiB"). A bare number is bytes. Fractional
// values are accepted ("1.5GiB") and rounded to the nearest byte.

// byteUnits maps lower-cased suffixes to their byte multipliers, longest
// first so "mib" is tried before "b". Every multiplier is an integer that
// fits int64 exactly (and float64 exactly — all are ≤ 2^40), so the integer
// fast path and the fractional fallback agree wherever both apply.
var byteUnits = []struct {
	suffix string
	mult   int64
}{
	{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30}, {"tib", 1 << 40},
	{"kb", 1e3}, {"mb", 1e6}, {"gb", 1e9}, {"tb", 1e12},
	{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30}, {"t", 1 << 40},
	{"b", 1},
}

// ParseBytes parses a human-readable byte size into bytes. The empty string
// parses to 0 (no budget). Negative values are accepted and parse to
// negative byte counts — FormatBytes output round-trips for every int64,
// negative renderings included — so budget-shaped callers must reject
// negatives at their own layer (Spec.Normalize does).
//
// Integer values are parsed exactly: every in-range spelling down to
// "9223372036854775807" maps to its precise byte count, and any value at or
// past ±2^63 bytes is an overflow error rather than an implementation-
// defined float→int conversion. Fractional values ("1.5GiB") go through
// float64 and round to the nearest byte.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, nil
	}
	lower := strings.ToLower(t)
	var mult int64 = 1
	num := lower
	for _, u := range byteUnits {
		if strings.HasSuffix(lower, u.suffix) {
			mult = u.mult
			num = strings.TrimSpace(lower[:len(lower)-len(u.suffix)])
			break
		}
	}
	if num == "" {
		return 0, fmt.Errorf("jobspec: byte size %q has no number", s)
	}
	// Exact integer path first: ParseFloat rounds counts near ±2^63 (e.g.
	// "9223372036854775807" rounds to exactly 2^63), which would either trip
	// the overflow guard on a representable value or, unguarded, hit the
	// implementation-defined out-of-range float→int64 conversion. Integers
	// stay in int64 with an overflow-checked multiply instead.
	if i, err := strconv.ParseInt(num, 10, 64); err == nil {
		switch {
		case i > 0 && i > math.MaxInt64/mult:
			return 0, fmt.Errorf("jobspec: byte size %q overflows", s)
		case i < 0 && i < math.MinInt64/mult:
			return 0, fmt.Errorf("jobspec: byte size %q overflows", s)
		}
		return i * mult, nil
	} else if errors.Is(err, strconv.ErrRange) {
		// An integer spelling outside int64 is an overflow for every unit —
		// don't let the float path round it back into range (±2^63±1 both
		// round to exactly ±2^63).
		return 0, fmt.Errorf("jobspec: byte size %q overflows", s)
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		// ParseFloat accepts "nan"/"inf", which would sail through the
		// overflow guards (NaN compares false to everything) and round to
		// garbage — a malformed size must fail loudly.
		return 0, fmt.Errorf("jobspec: bad byte size %q", s)
	}
	bytes := v * float64(mult)
	// >= on the positive side: float64 cannot represent MaxInt64, so the
	// first representable value past the int64 range is exactly 2^63 — the
	// historical strict > let it through into an out-of-range conversion.
	// -2^63 itself is representable and valid, so the negative guard is
	// strict.
	if bytes >= 1<<63 || bytes < -(1<<63) {
		return 0, fmt.Errorf("jobspec: byte size %q overflows", s)
	}
	return int64(math.Round(bytes)), nil
}

// FormatBytes renders a byte count in the largest unit that represents it
// exactly — binary units first (so 512 MiB round-trips as "512MiB"), then
// decimal, then bare bytes. Negative values render as the sign-prefixed
// rendering of their magnitude ("-1KiB"), deterministically, so callers can
// feed it signed quantities such as a budget's headroom once it is crossed.
// ParseBytes(FormatBytes(n)) == n for every int64.
func FormatBytes(n int64) string {
	if n < 0 {
		if n == math.MinInt64 {
			// The magnitude overflows int64; render bare bytes (the value
			// still round-trips through ParseBytes's -2^63 boundary).
			return "-9223372036854775808B"
		}
		return "-" + FormatBytes(-n)
	}
	if n == 0 {
		return "0B"
	}
	type unit struct {
		name string
		mult int64
	}
	for _, u := range []unit{
		{"TiB", 1 << 40}, {"TB", 1e12}, {"GiB", 1 << 30}, {"GB", 1e9},
		{"MiB", 1 << 20}, {"MB", 1e6}, {"KiB", 1 << 10}, {"KB", 1e3},
	} {
		if n%u.mult == 0 {
			return strconv.FormatInt(n/u.mult, 10) + u.name
		}
	}
	return strconv.FormatInt(n, 10) + "B"
}
