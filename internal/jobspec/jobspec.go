// Package jobspec is the shared description of one coloring job: which
// input to color (a hashed random graph, a Table II molecule instance, raw
// Pauli strings, or a general graph — a file payload or a benchmark-family
// name), which coloring variant, and which algorithm parameters. The
// picasso CLI builds a Spec from flags, the coloring service decodes one
// from a JSON request body, and both feed it through the same Normalize /
// Options / BuildInput path — so a job means exactly the same thing whether
// it arrives on argv or over HTTP, and the service can key its result cache
// on the canonical form.
//
// The canonical form (Canonical) is load-bearing well beyond this package:
// it is the dedup key of the service's in-memory job table, the input to
// the deterministic job id, and the content address of on-disk artifacts
// (internal/artifact). Its invariant: Normalize is idempotent, and after
// Normalize two specs describe the same job if and only if their Canonical
// strings are byte-identical. Every normalization rule therefore rewrites
// toward a single spelling (exact-unit byte sizes, Table II instance
// names, cleared defaults) — a new field must either have one canonical
// spelling or be excluded from serialization, or identical jobs stop
// deduplicating. ParseCanonical is the inverse direction, used when a
// persisted artifact is all that remains of a job.
package jobspec

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"picasso"
	"picasso/internal/graph"
)

// Input-mode names accepted in Spec.Mode.
const (
	ModeNormal     = "normal"
	ModeAggressive = "aggressive"
	ModeCustom     = "custom"
)

// Spec describes one coloring job. Exactly one of the input kinds —
// Random, Instance, Strings, Graph/GraphData — selects the input (see
// resolveSource); the remaining fields parameterize the run. The zero
// value of every parameter field means "default".
type Spec struct {
	// Random is a hashed Erdős–Rényi dense graph as "n:density",
	// e.g. "50000:0.5".
	Random string `json:"random,omitempty"`
	// Instance is a Table II instance name, matched case- and
	// whitespace-insensitively (e.g. "H6 3D sto3g").
	Instance string `json:"instance,omitempty"`
	// Strings is an inline Pauli-string payload, one letter string per
	// entry ("IXYZ", ...).
	Strings []string `json:"strings,omitempty"`
	// Graph is a general-graph input: a benchmark-family name ("queen9_9",
	// "myciel5", "reg4096") or — the canonical form of a file payload —
	// its content key "csr:<n>:<m>:<hash>". A content-key spec carries no
	// edge data itself; the payload arrives via GraphData, AttachGraph, or
	// a persisted artifact.
	Graph string `json:"graph,omitempty"`
	// GraphData is an inline graph file payload (DIMACS .col, Matrix
	// Market .mtx, or a whitespace edge list; format auto-detected).
	// Normalize parses it and collapses it to its content key in Graph, so
	// every spelling of the same edge set shares one canonical form.
	GraphData string `json:"graph_data,omitempty"`
	// Variant selects the coloring variant: "" (standard), "equitable"
	// (class sizes within one of each other where the coloring permits),
	// or "distance2" (two-hop conflicts; graph inputs only — the input is
	// squared at build time).
	Variant string `json:"variant,omitempty"`
	// parsed is the materialized CSR of a graph input — populated by
	// Normalize for inline payloads, by BuildInput for benchmark names,
	// and by AttachGraph on artifact recovery. Never serialized: the
	// canonical form carries the content key instead.
	parsed *graph.CSR
	// Target grows molecule instances toward this term count
	// (0 = the instance's Table II target).
	Target int `json:"target,omitempty"`
	// Mode is normal | aggressive | custom ("" = normal).
	Mode string `json:"mode,omitempty"`
	// PFrac and Alpha are the custom-mode operating point; ignored (and
	// cleared by Normalize) in the named modes.
	PFrac float64 `json:"p,omitempty"`
	Alpha float64 `json:"alpha,omitempty"`
	// Strategy picks the conflict coloring: dynamic | natural | largest |
	// random ("" = dynamic).
	Strategy string `json:"strategy,omitempty"`
	// Backend names the conflict-construction backend ("" = auto).
	Backend string `json:"backend,omitempty"`
	// Seed drives all randomness. Always serialized: two specs differing
	// only in seed are different jobs.
	Seed int64 `json:"seed"`
	// Workers bounds conflict-build parallelism (0 = all cores).
	Workers int `json:"workers,omitempty"`
	// Stream selects the partitioned streaming engine: vertices are colored
	// in shards against the fixed colors of the already-colored prefix, so
	// live memory follows the shard size instead of n. Implied by Shard or
	// Budget.
	Stream bool `json:"stream,omitempty"`
	// Shard fixes the streaming shard size (0 = derive from Budget, or a
	// size-based default).
	Shard int `json:"shard,omitempty"`
	// Budget is a human-readable host-memory budget ("512MiB", "2GB") the
	// run's tracker enforces; it also drives automatic shard sizing.
	// Normalized to the exact-unit spelling of the parsed byte count.
	Budget string `json:"budget,omitempty"`
	// Speculate colors this many streamed shards concurrently against the
	// same frozen frontier and repairs cross-shard collisions afterwards
	// (proper and deterministic per seed, not bit-identical — except that
	// a budgeted run whose lanes' interleaved peak straddles the budget
	// can vary between reruns, as lane timing decides whether a group
	// crossed it and so halved the next shard). Values below 2 mean off.
	// Implies Stream.
	Speculate int `json:"speculate,omitempty"`
	// Portfolio, when non-nil, races entrant configurations of the job —
	// varying seed, strategy, shard size, and speculative schedule — stops
	// entrants that provably cannot beat the best finished one, and keeps
	// the deterministic winner (see picasso.PortfolioOptions). Implies
	// Stream. A single-entrant block is the plain run and is canonicalized
	// away.
	Portfolio *PortfolioSpec `json:"portfolio,omitempty"`
	// Refine, when non-nil, runs the palette-refinement pass after the
	// coloring: rounds of dissolving the smallest color classes and
	// recoloring their vertices below the shrinking ceiling, clawing back
	// colors at streamed memory cost.
	Refine *RefineSpec `json:"refine,omitempty"`
	// Deadline is a wall-clock limit on the job measured from submission
	// ("90s", "5m"); a run past it fails with "deadline exceeded". The clock
	// is anchored to the original submit time, so a deadline stays honest
	// across a server restart. Normalized to time.Duration's spelling.
	Deadline string `json:"deadline,omitempty"`
	// Retries bounds automatic re-runs after a transient worker failure
	// (builder error, worker panic): up to this many extra attempts with
	// exponential backoff, each resuming from the last checkpoint when the
	// job streams. 0 = fail on the first error.
	Retries int `json:"retries,omitempty"`
}

// RefineSpec parameterizes the post-coloring palette-refinement pass
// (picasso.RefineOptions). The zero value of every field means "engine default".
// It doubles as the body of the service's POST /v1/jobs/{id}/refine, so
// the validation rules live in exactly one place (Normalize).
type RefineSpec struct {
	// Rounds caps the refinement rounds (0 = engine default).
	Rounds int `json:"rounds,omitempty"`
	// TargetColors stops refinement once the color count reaches it
	// (0 = refine until convergence).
	TargetColors int `json:"target_colors,omitempty"`
	// Budget is the refinement pass's own host-memory budget ("512MiB");
	// empty inherits the job's budget. Normalized like Spec.Budget.
	Budget string `json:"budget,omitempty"`
}

// PortfolioSpec parameterizes a portfolio race over the job.
type PortfolioSpec struct {
	// Entrants is the number of configurations raced, including the job's own
	// as entrant 0 (2..picasso.MaxPortfolioEntrants). 1 means "no race" and
	// normalizes the whole block away.
	Entrants int `json:"entrants"`
}

// Normalize validates the portfolio block. A one-entrant block reports
// itself as redundant (nil, nil): the caller drops it so the canonical form
// of "race of one" and "plain run" coincide.
func (p *PortfolioSpec) Normalize() (*PortfolioSpec, error) {
	if p.Entrants <= 0 {
		return nil, fmt.Errorf("jobspec: portfolio entrants %d must be positive", p.Entrants)
	}
	if p.Entrants > picasso.MaxPortfolioEntrants {
		return nil, fmt.Errorf("jobspec: portfolio entrants %d exceed the cap of %d", p.Entrants, picasso.MaxPortfolioEntrants)
	}
	if p.Entrants == 1 {
		return nil, nil
	}
	return p, nil
}

// Normalize validates the refine block and rewrites its budget to the
// canonical exact-unit spelling — shared by Spec.Normalize and the
// service's refine endpoint, so the two entry points cannot drift.
func (r *RefineSpec) Normalize() error {
	if r.Rounds < 0 {
		return fmt.Errorf("jobspec: negative refine rounds %d", r.Rounds)
	}
	if r.TargetColors < 0 {
		return fmt.Errorf("jobspec: negative refine target %d", r.TargetColors)
	}
	rb, err := ParseBytes(r.Budget)
	if err != nil {
		return err
	}
	if rb < 0 {
		return fmt.Errorf("jobspec: negative refine budget %q", r.Budget)
	}
	if rb > 0 {
		r.Budget = FormatBytes(rb)
	} else {
		r.Budget = ""
	}
	return nil
}

// Normalize validates the spec and rewrites it into canonical form in
// place: instance names are resolved to their Table II spelling, defaulted
// fields are cleared or filled, and parameters irrelevant to the selected
// mode are zeroed. After Normalize, two specs describe the same job iff
// their Canonical strings are equal.
func (s *Spec) Normalize() error {
	src, err := s.resolveSource()
	if err != nil {
		return err
	}
	if err := src.normalize(s); err != nil {
		return err
	}
	if s.Target < 0 {
		return fmt.Errorf("jobspec: negative target %d", s.Target)
	}

	s.Variant = strings.ToLower(strings.TrimSpace(s.Variant))
	switch picasso.Variant(s.Variant) {
	case picasso.VariantStandard, picasso.VariantEquitable:
	case picasso.VariantDistance2:
		if src.kind() != "graph" {
			return fmt.Errorf("jobspec: variant %q needs a graph input (the square is built from the materialized graph)", s.Variant)
		}
	default:
		return fmt.Errorf("jobspec: unknown variant %q (want equitable | distance2)", s.Variant)
	}

	if s.Mode == "" {
		s.Mode = ModeNormal
	}
	switch s.Mode {
	case ModeNormal, ModeAggressive:
		s.PFrac, s.Alpha = 0, 0
	case ModeCustom:
		if s.PFrac <= 0 || s.PFrac > 1 {
			return fmt.Errorf("jobspec: custom mode needs palette fraction p in (0, 1], got %v", s.PFrac)
		}
		if s.Alpha <= 0 {
			return fmt.Errorf("jobspec: custom mode needs positive alpha, got %v", s.Alpha)
		}
	default:
		return fmt.Errorf("jobspec: unknown mode %q (want normal | aggressive | custom)", s.Mode)
	}

	switch s.Strategy {
	case "", string(picasso.DynamicBuckets):
		s.Strategy = ""
	case string(picasso.StaticNatural), string(picasso.StaticLargest), string(picasso.StaticRandom):
	default:
		return fmt.Errorf("jobspec: unknown strategy %q (want dynamic | natural | largest | random)", s.Strategy)
	}

	switch s.Backend {
	case "", "auto":
		s.Backend = ""
	default:
		known := picasso.Backends()
		found := false
		for _, b := range known {
			if s.Backend == b {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("jobspec: unknown backend %q (want %s)", s.Backend, strings.Join(known, " | "))
		}
	}

	if s.Workers < 0 {
		return fmt.Errorf("jobspec: negative workers %d", s.Workers)
	}

	if s.Shard < 0 {
		return fmt.Errorf("jobspec: negative shard size %d", s.Shard)
	}
	budget, err := ParseBytes(s.Budget)
	if err != nil {
		return err
	}
	if budget < 0 {
		// ParseBytes accepts negatives (FormatBytes round-trip); a budget
		// must not.
		return fmt.Errorf("jobspec: negative budget %q", s.Budget)
	}
	if budget > 0 {
		s.Budget = FormatBytes(budget) // canonical exact-unit spelling
	} else {
		s.Budget = ""
	}
	if s.Speculate < 0 {
		return fmt.Errorf("jobspec: negative speculate %d", s.Speculate)
	}
	if s.Speculate == 1 {
		s.Speculate = 0 // one lane is the sequential stream: canonical "off"
	}
	if s.Portfolio != nil {
		p, err := s.Portfolio.Normalize()
		if err != nil {
			return err
		}
		s.Portfolio = p
	}
	if s.Shard > 0 || s.Budget != "" || s.Speculate >= 2 || s.Portfolio != nil {
		s.Stream = true // shard/budget/concurrency/racing knobs imply the streaming engine
	}
	if s.Refine != nil {
		if err := s.Refine.Normalize(); err != nil {
			return err
		}
	}
	if s.Deadline != "" {
		d, err := time.ParseDuration(s.Deadline)
		if err != nil {
			return fmt.Errorf("jobspec: bad deadline %q: %w", s.Deadline, err)
		}
		if d <= 0 {
			return fmt.Errorf("jobspec: deadline %q must be positive", s.Deadline)
		}
		s.Deadline = d.String() // canonical spelling: "90s" and "1m30s" are the same job
	}
	if s.Retries < 0 {
		return fmt.Errorf("jobspec: negative retries %d", s.Retries)
	}
	if s.Retries > maxRetries {
		return fmt.Errorf("jobspec: retries %d exceeds the cap of %d", s.Retries, maxRetries)
	}
	return nil
}

// maxRetries caps Spec.Retries: with exponential backoff, more attempts
// than this means hours of futile re-running, not resilience.
const maxRetries = 16

// DeadlineDuration returns the parsed wall-clock deadline of a normalized
// spec (0 = none).
func (s Spec) DeadlineDuration() time.Duration {
	if s.Deadline == "" {
		return 0
	}
	d, _ := time.ParseDuration(s.Deadline)
	return d
}

// Streamed reports whether the job runs on the partitioned streaming
// engine (after Normalize).
func (s Spec) Streamed() bool { return s.Stream }

// BudgetBytes returns the parsed memory budget of a normalized spec (0 =
// none).
func (s Spec) BudgetBytes() int64 {
	b, _ := ParseBytes(s.Budget)
	return b
}

// Canonical returns the canonical serialized form of a normalized spec —
// the cache key and job-id basis. Struct-order JSON marshaling makes it
// deterministic.
func (s Spec) Canonical() string {
	b, err := json.Marshal(s)
	if err != nil {
		// A Spec holds only strings and numbers; Marshal cannot fail.
		panic(fmt.Sprintf("jobspec: canonicalizing: %v", err))
	}
	return string(b)
}

// ParseCanonical decodes a canonical spec string (as produced by
// Canonical) back into a validated Spec — the recovery path for jobs whose
// only remaining record is a persisted artifact. Unknown fields and specs
// that fail Normalize are rejected; note that child-job cache keys
// ("...+append:...", "...+refine:...") are canonical strings but not
// canonical specs, and fail here by design.
func ParseCanonical(canonical string) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(canonical))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("jobspec: parsing canonical spec: %w", err)
	}
	if err := s.Normalize(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Options translates a normalized spec into run options, schedule included:
// Stream, and the Refine and Portfolio blocks (a refine block without a
// budget of its own inherits the run's). Device and Tracker wiring stays
// with the caller.
func (s Spec) Options() picasso.Options {
	var opts picasso.Options
	switch s.Mode {
	case ModeAggressive:
		opts = picasso.Aggressive(s.Seed)
	case ModeCustom:
		opts = picasso.Options{PaletteFrac: s.PFrac, Alpha: s.Alpha, Seed: s.Seed, Strategy: picasso.DynamicBuckets}
	default:
		opts = picasso.Normal(s.Seed)
	}
	if s.Strategy != "" {
		opts.Strategy = picasso.ListStrategy(s.Strategy)
	}
	opts.Backend = s.Backend
	opts.Workers = s.Workers
	opts.ShardSize = s.Shard
	opts.MemoryBudgetBytes = s.BudgetBytes()
	opts.Speculate = s.Speculate
	opts.Variant = picasso.Variant(s.Variant)
	opts.Stream = s.Stream
	if r := s.Refine; r != nil {
		budget, _ := ParseBytes(r.Budget)
		opts.Refine = &picasso.RefineOptions{Rounds: r.Rounds, TargetColors: r.TargetColors, BudgetBytes: budget}
	}
	if s.Portfolio != nil {
		opts.Portfolio = &picasso.PortfolioOptions{Entrants: s.Portfolio.Entrants}
	}
	return opts
}

// NumVertices reports the job's input size: the vertex count for random
// and general graphs, the string count for inline payloads, and the growth
// target (an upper bound on the built size) for molecule instances.
// Admission control in the service sizes its limits against this.
func (s Spec) NumVertices() int {
	src, err := s.resolveSource()
	if err != nil {
		return 0
	}
	return src.numVertices(&s)
}

// BuildInput materializes the job's input: an edge oracle for random and
// general graphs (for variant "distance2", the squared graph), a Pauli set
// (plus its commutation oracle, built by the caller) otherwise. Exactly one
// return is non-nil on success. Graph benchmarks built here are cached on
// the spec, so repeated builds reuse the CSR.
func (s *Spec) BuildInput() (picasso.Oracle, *picasso.PauliSet, error) {
	src, err := s.resolveSource()
	if err != nil {
		return nil, nil, err
	}
	return src.build(s)
}

// GraphCSR returns the materialized base graph of a graph-input spec (nil
// for other kinds, or while only the content key is known). The service
// persists it into the job's artifact so a content-key spec remains
// rebuildable from disk.
func (s *Spec) GraphCSR() *graph.CSR { return s.parsed }

// AttachGraph supplies the edge data behind a content-key graph spec — the
// recovery path when the payload comes from a persisted artifact rather
// than the request body. Content that does not hash to the spec's key is
// rejected, so a corrupted artifact cannot silently recolor a different
// graph.
func (s *Spec) AttachGraph(g *graph.CSR) error {
	if s.Graph == "" {
		return fmt.Errorf("jobspec: attaching a graph to a non-graph spec")
	}
	if key := graph.ContentKey(g); s.Graph != key {
		return fmt.Errorf("jobspec: attached graph %s does not match spec graph %q", key, s.Graph)
	}
	s.parsed = g
	return nil
}

// ParseRandom parses an "n:density" random-graph spec.
func ParseRandom(spec string) (int, float64, error) {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("jobspec: random spec wants n:density, got %q", spec)
	}
	n, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil || n <= 0 {
		return 0, 0, fmt.Errorf("jobspec: bad vertex count in %q", spec)
	}
	d, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil || d < 0 || d > 1 {
		return 0, 0, fmt.Errorf("jobspec: bad density in %q (want [0, 1])", spec)
	}
	return n, d, nil
}

// ReadPauliLines reads one Pauli string per line, tolerating CRLF line
// endings, surrounding whitespace, blank lines, and '#' comments; a
// trailing coefficient field ("XYZI 0.25") is accepted and ignored. An
// input with no strings at all is an error — every caller treats an empty
// workload as a mistake, not a no-op.
func ReadPauliLines(r io.Reader) ([]string, error) {
	var lines []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines = append(lines, strings.Fields(line)[0])
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("jobspec: reading strings: %w", err)
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("jobspec: no Pauli strings in input")
	}
	return lines, nil
}
