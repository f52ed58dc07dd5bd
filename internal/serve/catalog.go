package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"steac/internal/campaign"
	"steac/internal/catalog"
	"steac/internal/envelope"
	"steac/internal/memfault"
	"steac/internal/memory"
	"steac/internal/obs"
	"steac/internal/recommend"
	"steac/internal/testinfo"
	"steac/internal/xcheck"
)

// The results catalog API: every completed result the daemon computes —
// synchronous flow runs and scheduling sweeps, asynchronous fault-campaign
// jobs — is ingested into the durable catalog under -catalog-dir, keyed by
// the same content address the rest of the system already uses (the memo
// cache key for synchronous results, the campaign fingerprint for jobs).
//
//	GET  /v1/catalog                 list records (scenario/kind/coverage filters)
//	GET  /v1/catalog/{fingerprint}   fetch one record
//	GET  /v1/catalog/compare         tradeoff table as json, csv or html
//	POST /v1/recommend               kNN DFT suggestion from prior results
//
// Catalog visibility is tenant-scoped exactly like jobs: a tenant only
// ever lists, fetches, compares, and gets recommendations over its own
// records, and a cross-tenant fingerprint probe answers the same 404 as a
// fingerprint that never existed.

var (
	obsCatalogIngested  = obs.GetCounter("serve.catalog_ingested")
	obsCatalogIngestErr = obs.GetCounter("serve.catalog_ingest_failures")
)

// catalogSource is implemented by synchronous request types whose results
// belong in the catalog.  fingerprint is the request's memo-cache key;
// result is the computed response value and blob its marshaled bytes, as
// cached and answered.
type catalogSource interface {
	catalogRecords(fingerprint, tenant string, result interface{}, blob []byte) []catalog.Record
}

// chipProfile regenerates the chip a request named and profiles it for the
// catalog: size features plus the chip's own DFT defaults.  ok is false
// for explicit-STIL submissions (no regenerable provenance) and unknown
// scenario names.
func chipProfile(name string, seed int64) (feat catalog.Features, cfg catalog.Config, ok bool) {
	if name == "" {
		return catalog.Features{}, catalog.Config{}, false
	}
	chip, err := chipByName(name, seed)
	if err != nil {
		return catalog.Features{}, catalog.Config{}, false
	}
	feat = catalog.CoreFeatures(chip.Cores, chip.Memories)
	alg := chip.BIST.Algorithm.Name
	if alg == "" {
		alg = "March C-"
	}
	cfg = catalog.Config{
		TamWidth:    chip.Resources.TestPins,
		Partitioner: "lpt",
		Algorithm:   alg,
		Grouping:    chip.BIST.Grouping.String(),
		LogicBIST:   len(chip.ExtraBIST) > 0,
		PowerBudget: chip.Resources.PowerBudget,
	}
	return feat, cfg, true
}

// catalogStore resolves the server's catalog, surfacing a deferred open
// failure (the jobMgr.dbErr pattern) or the unconfigured case as typed
// errors.
func (s *Server) catalogStore() (*catalog.Store, error) {
	if s.catErr != nil {
		return nil, fmt.Errorf("serve: catalog unavailable: %w", s.catErr)
	}
	if s.catalog == nil {
		return nil, badRequestf("serve: this daemon runs without a catalog (-catalog-dir)")
	}
	return s.catalog, nil
}

// catalogIngest stamps and stores freshly produced records.  Ingest is
// deliberately best-effort: a failing Put must show up loudly in metrics
// without failing the request whose computation already succeeded.
func (s *Server) catalogIngest(recs []catalog.Record) {
	if s.catalog == nil || len(recs) == 0 {
		return
	}
	now := time.Now().UnixMilli()
	for _, rec := range recs {
		if rec.CreatedUnixMS == 0 {
			rec.CreatedUnixMS = now
		}
		if err := s.catalog.Put(rec); err != nil {
			obsCatalogIngestErr.Add(1)
			continue
		}
		obsCatalogIngested.Add(1)
	}
}

// ingestJobRecord converts one completed durable job row into its catalog
// record.  It is the jobManager's ingest hook and the backfill worker.
func (s *Server) ingestJobRecord(rec jobRecord) {
	crec, ok := campaignCatalogRecord(rec)
	if !ok {
		obsCatalogIngestErr.Add(1)
		return
	}
	s.catalogIngest([]catalog.Record{crec})
}

// backfillCatalog ingests every completed job already in the durable job
// database that the catalog does not know yet — the path that populates a
// fresh -catalog-dir on a daemon with an existing job history, and that
// reconciles jobs finishing between the last catalog write and a crash.
func (s *Server) backfillCatalog() {
	if s.catalog == nil || s.jobMgr.db == nil {
		return
	}
	for _, rec := range s.jobMgr.db.all() {
		if rec.State != jobDone || len(rec.Result) == 0 {
			continue
		}
		if _, ok := s.catalog.Get(rec.Tenant, rec.Fingerprint); ok {
			continue
		}
		s.ingestJobRecord(rec)
	}
}

// campaignCatalogRecord summarizes a terminal job row as a catalog record:
// the spec supplies provenance and configuration, the engine report
// supplies the metrics.  The verbatim report rides along in Result.
func campaignCatalogRecord(rec jobRecord) (catalog.Record, bool) {
	if rec.State != jobDone || len(rec.Result) == 0 {
		return catalog.Record{}, false
	}
	spec, err := campaign.Decode(rec.Kind, rec.Spec)
	if err != nil {
		return catalog.Record{}, false
	}
	out := catalog.Record{
		Fingerprint:   rec.Fingerprint,
		Tenant:        rec.Tenant,
		CreatedUnixMS: rec.Finished,
		Result:        rec.Result,
	}
	switch sp := spec.(type) {
	case *campaign.CoverageSpec:
		var camp memfault.Campaign
		if err := json.Unmarshal(rec.Result, &camp); err != nil {
			return catalog.Record{}, false
		}
		out.Kind = catalog.KindMemfault
		out.Scenario, out.Seed = sp.Scenario, sp.ChipSeed
		out.Config = catalog.Config{Algorithm: camp.Algorithm}
		if feat, _, ok := chipProfile(sp.Scenario, sp.ChipSeed); ok {
			out.Features = feat
		} else {
			out.Features = catalog.Features{Memories: 1, MemoryBits: sp.Config.Words * sp.Config.Bits}
		}
		out.Metrics = catalog.Metrics{Coverage: camp.Percent(), Faults: camp.Total, Detected: camp.Detected}
	case *campaign.XCheckSpec:
		var res xcheck.CampaignResult
		if err := json.Unmarshal(rec.Result, &res); err != nil {
			return catalog.Record{}, false
		}
		out.Kind = catalog.KindXCheck
		out.Scenario, out.Seed = sp.Scenario, sp.ChipSeed
		out.Config = catalog.Config{Algorithm: sp.Algorithm, TamWidth: sp.TamWidth}
		if feat, _, ok := chipProfile(sp.Scenario, sp.ChipSeed); ok {
			out.Features = feat
		} else {
			f := catalog.Features{Memories: len(sp.Memories)}
			for _, m := range sp.Memories {
				f.MemoryBits += m.Words * m.Bits
			}
			out.Features = f
		}
		out.Metrics = catalog.Metrics{Coverage: res.Coverage(), Faults: res.Total, Detected: res.Detected}
	default:
		return catalog.Record{}, false
	}
	return out, true
}

// catalogQuery parses the shared listing filters (scenario, kind,
// min_coverage, max_coverage, limit) into a tenant-scoped query.
func catalogQuery(r *http.Request, tenant string) (catalog.Query, error) {
	q := catalog.Query{Tenant: tenant}
	v := r.URL.Query()
	q.Scenario = v.Get("scenario")
	q.Kind = v.Get("kind")
	var err error
	if raw := v.Get("min_coverage"); raw != "" {
		if q.MinCoverage, err = strconv.ParseFloat(raw, 64); err != nil {
			return q, badRequestf("serve: bad min_coverage %q", raw)
		}
	}
	if raw := v.Get("max_coverage"); raw != "" {
		if q.MaxCoverage, err = strconv.ParseFloat(raw, 64); err != nil {
			return q, badRequestf("serve: bad max_coverage %q", raw)
		}
	}
	if raw := v.Get("limit"); raw != "" {
		if q.Limit, err = strconv.Atoi(raw); err != nil || q.Limit < 0 {
			return q, badRequestf("serve: bad limit %q", raw)
		}
	}
	return q, nil
}

// CatalogResponse is the GET /v1/catalog wire form.  Total counts every
// match; Records honors the limit.
type CatalogResponse struct {
	Records []catalog.Record `json:"records"`
	Total   int              `json:"total"`
}

// handleCatalogList is GET /v1/catalog.
func (s *Server) handleCatalogList(w http.ResponseWriter, r *http.Request, tn *tenantState) error {
	st, err := s.catalogStore()
	if err != nil {
		return err
	}
	q, err := catalogQuery(r, tn.ID)
	if err != nil {
		return err
	}
	limit := q.Limit
	q.Limit = 0
	recs := st.List(q)
	total := len(recs)
	if limit > 0 && len(recs) > limit {
		recs = recs[:limit]
	}
	envelope.WriteJSON(w, http.StatusOK, CatalogResponse{Records: recs, Total: total})
	return nil
}

// handleCatalogGet is GET /v1/catalog/{fingerprint}.  Ownership-scoped
// like jobs: another tenant's fingerprint — even a correctly guessed one —
// answers the same 404 as one that never existed.
func (s *Server) handleCatalogGet(w http.ResponseWriter, r *http.Request, tn *tenantState) error {
	st, err := s.catalogStore()
	if err != nil {
		return err
	}
	fp := r.PathValue("fingerprint")
	rec, ok := st.Get(tn.ID, fp)
	if !ok {
		return fmt.Errorf("%w: no catalog record %q", ErrNotFound, fp)
	}
	envelope.WriteJSON(w, http.StatusOK, rec)
	return nil
}

// handleCatalogCompare is GET /v1/catalog/compare: the filtered record set
// rendered as a tradeoff table — ?format=json (default), csv, or html.
func (s *Server) handleCatalogCompare(w http.ResponseWriter, r *http.Request, tn *tenantState) error {
	st, err := s.catalogStore()
	if err != nil {
		return err
	}
	q, err := catalogQuery(r, tn.ID)
	if err != nil {
		return err
	}
	cmp := catalog.CompareRecords(st.List(q))
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		blob, err := cmp.JSON()
		if err != nil {
			return err
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(blob)
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		_, _ = io.WriteString(w, cmp.CSV())
	case "html":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = io.WriteString(w, cmp.HTML())
	default:
		return badRequestf("serve: unknown compare format %q (json, csv or html)", format)
	}
	return nil
}

// RecommendRequest is the POST /v1/recommend body.  Scenario/Seed
// regenerate a registry chip as the query description — the convenient
// form; alternatively supply explicit Cores and Memories (a chip that has
// never run anywhere).
type RecommendRequest struct {
	Scenario    string           `json:"scenario,omitempty"`
	Seed        int64            `json:"seed,omitempty"`
	Cores       []*testinfo.Core `json:"cores,omitempty"`
	Memories    []memory.Config  `json:"memories,omitempty"`
	K           int              `json:"k,omitempty"`
	MaxTamWidth int              `json:"max_tam_width,omitempty"`
}

// handleRecommend is POST /v1/recommend: rank the tenant's catalog against
// the described chip and answer with a recommend.Suggestion.  An empty or
// unusable catalog is a typed 404 (there is nothing to recommend from),
// not an empty suggestion.
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request, tn *tenantState) error {
	st, err := s.catalogStore()
	if err != nil {
		return err
	}
	var req RecommendRequest
	if err := decode(w, r, "recommend request", &req); err != nil {
		return err
	}
	cores, mems := req.Cores, req.Memories
	if req.Scenario != "" {
		if len(cores) > 0 {
			return badRequestf("serve: recommend request names both a scenario and explicit cores")
		}
		chip, err := chipByName(req.Scenario, req.Seed)
		if err != nil {
			return err
		}
		cores, mems = chip.Cores, chip.Memories
	}
	sug, err := recommend.Recommend(st.List(catalog.Query{Tenant: tn.ID}), recommend.Request{
		Cores: cores, Memories: mems, K: req.K, MaxTamWidth: req.MaxTamWidth,
	})
	switch {
	case errors.Is(err, recommend.ErrNoData):
		return fmt.Errorf("%w: %v", ErrNotFound, err)
	case err != nil:
		return errBadRequest{err}
	}
	envelope.WriteJSON(w, http.StatusOK, sug)
	return nil
}
