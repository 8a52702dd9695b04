package server

import (
	"encoding/json"
	"time"

	"picasso"
	"picasso/internal/artifact"
	"picasso/internal/bucket"
	"picasso/internal/graph"
	"picasso/internal/jobspec"
)

// artifactMeta is the server's job envelope inside an artifact's meta
// section: everything needed to rehydrate a finished Job that the typed
// sections (spec, slab, index, coloring) do not carry. The spec rides
// along decoded because child jobs' canonical strings are composite cache
// keys, not parseable specs.
type artifactMeta struct {
	Spec          jobspec.Spec   `json:"spec"`
	Result        *ResultSummary `json:"result,omitempty"`
	AppendParent  string         `json:"append_parent,omitempty"`
	AppendStrings []string       `json:"append_strings,omitempty"`
	Appended      int            `json:"appended,omitempty"`
	RefineParent  string         `json:"refine_parent,omitempty"`
	RefineStrings []string       `json:"refine_strings,omitempty"`
	FinishedAt    string         `json:"finished_at,omitempty"`
}

// persistArtifact writes a finished job to the disk tier: canonical spec,
// the parsed slab (plain Pauli jobs only — child jobs share their base
// job's slab), the dense coloring replayed from the groups, its
// palette-bucket inverted index, and the job envelope. Called before the
// job's done state becomes observable, so it reads only fields immutable
// since submission and takes the result by argument. Persistence is
// best-effort: a full disk degrades the service to memory-only caching, it
// never fails the job.
func (s *Server) persistArtifact(job *Job, set *picasso.PauliSet, groups [][]int, sum *ResultSummary, finished time.Time) {
	if s.store == nil {
		return
	}
	colors, err := replayGroups(groups)
	if err != nil {
		return
	}
	ix, err := bucket.BuildIndex(colors)
	if err != nil {
		return
	}
	meta := artifactMeta{
		Spec:       job.Spec,
		Result:     sum,
		FinishedAt: finished.UTC().Format(time.RFC3339Nano),
	}
	if job.Append != nil {
		meta.AppendParent = job.Append.ParentID
		meta.AppendStrings = job.Append.Strings
		meta.Appended = job.Append.Appended
	}
	if job.Refine != nil {
		meta.RefineParent = job.Refine.ParentID
		meta.RefineStrings = job.Refine.Strings
	}
	blob, err := json.Marshal(meta)
	if err != nil {
		return
	}
	art := &artifact.Artifact{
		Spec:   job.Canonical,
		Index:  ix,
		Colors: colors,
		Meta:   blob,
	}
	if job.Append == nil && job.Refine == nil {
		// The parsed input makes the artifact a prep artifact too: a
		// restarted replica colors this spec again without re-parsing. Pauli
		// jobs carry the slab; graph jobs carry the base CSR (which is also
		// the only payload behind a content-key spec — without it a
		// rehydrated graph job could never rebuild its input).
		art.Set = set
		art.Graph = job.Spec.GraphCSR()
	}
	if _, err := s.store.Put(art); err == nil {
		s.mu.Lock()
		s.stats.artifactWrites++
		s.mu.Unlock()
	}
}

// rehydrate consults the disk tier for a finished result matching the
// job's canonical spec and, on a hit, installs it as a done job — result
// summary, groups, lineage — exactly as if this process had colored it.
// Returns nil on any miss or verification failure (the caller then colors
// from scratch).
func (s *Server) rehydrate(j *Job) *Job {
	if s.store == nil {
		return nil
	}
	art, err := s.store.Get(j.Canonical)
	if err != nil || !art.Complete() {
		return nil
	}
	meta, ok := decodeMeta(art)
	if !ok {
		return nil
	}
	return s.installRehydrated(j, art, meta, true)
}

// rehydrateByID is rehydrate for parent resolution, where only the job id
// is known: append/refine submissions against a parent this process never
// ran resolve it from the persisted artifact instead of failing with
// unknown_job. The artifact's spec section re-hashes to the id (verified
// by the store), so the recovered lineage is as trustworthy as the
// in-memory table's.
func (s *Server) rehydrateByID(id string) *Job {
	if s.store == nil {
		return nil
	}
	art, err := s.store.GetAddress(id)
	if err != nil || !art.Complete() {
		return nil
	}
	meta, ok := decodeMeta(art)
	if !ok {
		return nil
	}
	j := &Job{ID: id, Spec: meta.Spec, Canonical: art.Spec}
	return s.installRehydrated(j, art, meta, false)
}

// installRehydrated fills a job's result fields from a decoded artifact
// and installs it in the job table and done LRU, double-checked against a
// racing installer of the same id (the installed job wins; countHit makes
// the race count as a submission cache hit, for the submit path).
func (s *Server) installRehydrated(j *Job, art *artifact.Artifact, meta artifactMeta, countHit bool) *Job {
	j.State = StateDone
	j.Hits = 1
	j.SubmittedAt = time.Now()
	j.FinishedAt = j.SubmittedAt
	if meta.FinishedAt != "" {
		if t, err := time.Parse(time.RFC3339Nano, meta.FinishedAt); err == nil {
			j.FinishedAt = t
		}
	}
	j.Groups = art.Index.Groups()
	j.Result = meta.Result
	if j.Result == nil {
		j.Result = &ResultSummary{
			Vertices:  art.Index.NumVertices(),
			NumColors: len(j.Groups),
			NumGroups: len(j.Groups),
		}
	}
	if meta.AppendParent != "" && j.Append == nil {
		j.Append = &appendJob{ParentID: meta.AppendParent, Strings: meta.AppendStrings, Appended: meta.Appended}
	}
	if meta.RefineParent != "" && j.Refine == nil {
		j.Refine = &refineJob{ParentID: meta.RefineParent, Strings: meta.RefineStrings}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.jobs[j.ID]; ok {
		if countHit {
			existing.Hits++
			s.stats.cacheHits++
		}
		s.touch(existing)
		return existing
	}
	s.jobs[j.ID] = j
	s.stats.diskHits++
	s.retain(j)
	return j
}

// decodeMeta extracts and validates the server envelope of an artifact.
// Artifacts written by the CLI carry no envelope; for those, a plain
// canonical spec is recovered via jobspec.ParseCanonical so a CLI-colored
// artifact still serves as a full disk-tier hit.
func decodeMeta(art *artifact.Artifact) (artifactMeta, bool) {
	var meta artifactMeta
	if len(art.Meta) > 0 {
		if err := json.Unmarshal(art.Meta, &meta); err != nil {
			return artifactMeta{}, false
		}
		if err := meta.Spec.Normalize(); err != nil {
			return artifactMeta{}, false
		}
		return meta, true
	}
	spec, err := jobspec.ParseCanonical(art.Spec)
	if err != nil {
		return artifactMeta{}, false
	}
	return artifactMeta{Spec: spec}, true
}

// prepInput consults the disk tier for a parsed input matching the job's
// *base* spec — the prep half of the preprocess/serve split: the Pauli
// slab for molecule/strings jobs, the base CSR for graph jobs. Child jobs
// look up their base spec's artifact (their own canonical is a composite
// key), which is exactly where the shared input lives. Both nil on miss.
func (s *Server) prepInput(job *Job) (*picasso.PauliSet, *graph.CSR) {
	if s.store == nil {
		return nil, nil
	}
	art, err := s.store.Get(job.Spec.Canonical())
	if err != nil || (art.Set == nil && art.Graph == nil) {
		return nil, nil
	}
	s.mu.Lock()
	s.stats.artifactLoads++
	s.mu.Unlock()
	return art.Set, art.Graph
}
