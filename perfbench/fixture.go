package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"steac/internal/campaign"
	"steac/internal/catalog"
	"steac/internal/memory"
	"steac/internal/serve"
)

// benchTenants are the two tenants every daemon workload serves.
var benchTenants = []serve.Tenant{
	{ID: "alpha", Key: "perfbench-alpha-key"},
	{ID: "beta", Key: "perfbench-beta-key"},
}

// manifest describes a built fixture.
type manifest struct {
	Seed    int64           `json:"seed"`
	Records int             `json:"records"`
	Jobs    int             `json:"jobs"`
	Failed  int             `json:"failed"`
	Tenants []fixtureTenant `json:"tenants"`
}

// fixtureTenant lists one tenant's scheduling-sweep record fingerprints,
// sorted: the population catalog-serve fetches from.
type fixtureTenant struct {
	ID           string   `json:"id"`
	Fingerprints []string `json:"fingerprints"`
}

func (m *manifest) tenant(id string) fixtureTenant {
	for _, t := range m.Tenants {
		if t.ID == id {
			return t
		}
	}
	return fixtureTenant{}
}

// fixtureSize sets how much history the fixture daemon accumulates.
type fixtureSize struct {
	sweeps int // /v1/sched sweeps per tenant and scenario
	pins   []int
	flows  int // /v1/flow runs per tenant and scenario
	jobs   int // memfault campaign jobs per tenant
}

// fullFixture holds ~10k catalog records: 2 tenants × 5 scenarios × 18
// sweeps × 57 budgets, plus 60 flows and 8 finished jobs.
var fullFixture = fixtureSize{sweeps: 18, pins: pinRange(8, 64), flows: 6, jobs: 4}

// smokeFixture is the same shape at ~1/20 the size.
var smokeFixture = fixtureSize{sweeps: 1, pins: pinRange(16, 48), flows: 1, jobs: 1}

func pinRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for p := lo; p <= hi; p++ {
		out = append(out, p)
	}
	return out
}

// ensureFixture builds the seed's state directory under root unless it
// already exists, and returns its path.  The build drives a real daemon
// through /v1/sched, /v1/flow and /v1/jobs, so every record took the
// production ingest path; it runs untimed, before any measured process
// starts.
func ensureFixture(root string, seed int64, size fixtureSize) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("seed-%d", seed))
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err == nil {
		return dir, nil
	}
	tmp := fmt.Sprintf("%s.tmp-%d", dir, os.Getpid())
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	man, err := buildFixture(tmp, seed, size)
	if err != nil {
		os.RemoveAll(tmp)
		return "", fmt.Errorf("build fixture: %w", err)
	}
	blob, err := json.MarshalIndent(man, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(tmp, "manifest.json"), blob, 0o644); err != nil {
		return "", err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.Rename(tmp, dir)
}

func buildFixture(dir string, seed int64, size fixtureSize) (*manifest, error) {
	d, err := startDaemon(dir, benchTenants)
	if err != nil {
		return nil, err
	}
	man := &manifest{Seed: seed}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, len(d.clients))
	for ci, c := range d.clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			failed, jobs, err := feedTenant(c, ci, seed, size)
			mu.Lock()
			man.Failed += failed
			man.Jobs += jobs
			mu.Unlock()
			errs[ci] = err
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.stop()
			return nil, err
		}
	}
	for _, c := range d.clients {
		r, err := c.do(context.Background(), http.MethodGet, "/v1/catalog?kind="+catalog.KindSched, nil)
		if err != nil || !r.ok() {
			d.stop()
			return nil, fmt.Errorf("list %s: %v %s", c.tenant, err, r.body)
		}
		var cr serve.CatalogResponse
		if err := json.Unmarshal(r.body, &cr); err != nil {
			d.stop()
			return nil, err
		}
		ft := fixtureTenant{ID: c.tenant}
		for _, rec := range cr.Records {
			ft.Fingerprints = append(ft.Fingerprints, rec.Fingerprint)
		}
		sort.Strings(ft.Fingerprints)
		man.Tenants = append(man.Tenants, ft)
	}
	r, err := d.clients[0].do(context.Background(), http.MethodGet, "/metrics", nil)
	if err == nil {
		var name string
		var n int
		for _, line := range splitLines(r.body) {
			if _, e := fmt.Sscan(line, &name, &n); e == nil && name == "serve.catalog_records" {
				man.Records = n
			}
		}
	}
	return man, d.stop()
}

// feedTenant sends one tenant's share of the fixture history: sweeps and
// flows over every builtin scenario, then small memfault jobs run to done.
func feedTenant(c *client, ci int, seed int64, size fixtureSize) (failed, jobs int, err error) {
	ctx := context.Background()
	scenarios := append([]string{"dsc"}, generatedChips...)
	for _, name := range scenarios {
		stream := fmt.Sprintf("fixture/%d/%s", ci, name)
		for j := 0; j < size.sweeps; j++ {
			req := serve.SchedRequest{Chip: name, Seed: freshSeed(seed, stream+"/sched", j), TestPins: size.pins}
			r, err := c.do(ctx, http.MethodPost, "/v1/sched", req)
			if err != nil {
				return failed, jobs, err
			}
			if !r.ok() {
				failed++
			}
		}
		for j := 0; j < size.flows; j++ {
			req := serve.FlowRequest{Chip: name, Seed: freshSeed(seed, stream+"/flow", j)}
			r, err := c.do(ctx, http.MethodPost, "/v1/flow", req)
			if err != nil {
				return failed, jobs, err
			}
			if !r.ok() {
				failed++
			}
		}
	}
	for j := 0; j < size.jobs; j++ {
		spec := &campaign.CoverageSpec{Algorithm: "March C-", AllFaults: true,
			Config: memory.Config{Name: fmt.Sprintf("fixture-%d-%d-%d", seed, ci, j), Words: 32, Bits: 4}}
		raw, err := spec.Marshal()
		if err != nil {
			return failed, jobs, err
		}
		r, err := c.do(ctx, http.MethodPost, "/v1/jobs", serve.JobRequest{Kind: spec.Kind(), Spec: raw})
		if err != nil {
			return failed, jobs, err
		}
		var st serve.JobStatus
		if !r.ok() || json.Unmarshal(r.body, &st) != nil {
			failed++
			continue
		}
		wctx, cancel := context.WithTimeout(ctx, time.Minute)
		st, _, err = c.waitJob(wctx, st.ID, 5*time.Millisecond, nil, 0, 0)
		cancel()
		if err != nil {
			return failed, jobs, err
		}
		if st.State != "done" {
			failed++
			continue
		}
		jobs++
	}
	return failed, jobs, nil
}

func splitLines(b []byte) []string {
	var out []string
	start := 0
	for i, ch := range b {
		if ch == '\n' {
			out = append(out, string(b[start:i]))
			start = i + 1
		}
	}
	return out
}

// copyTree copies the regular files of src into dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

func readManifest(dir string) (*manifest, error) {
	blob, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("fixture manifest: %w", err)
	}
	return &m, nil
}
