package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"steac/internal/catalog"
	"steac/internal/wal"
)

// catalogScenarios are the scenario names the seeded catalog spreads its
// records over; the catalog.list op queries each of them.
var catalogScenarios = []string{"dsc", "hybrid-power", "manycore", "memory-heavy", "p1500-lbist"}

// catalogListSetup builds the catalog.list workload: a seeded two-tenant
// store of 10,240 records, written as one log and then opened (10k
// fsync'd Puts would dominate the suite), and a measured iteration that
// pages every (tenant, scenario) slice of sched records, 50 at a time —
// the daemon's GET /v1/catalog?scenario=…&kind=sched&limit=50.
func catalogListSetup() (func() (opResult, error), error) {
	dir, err := os.MkdirTemp("", "steac-bench-catalog-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rng := rand.New(rand.NewSource(1))
	kinds := []string{catalog.KindFlow, catalog.KindMemfault, catalog.KindSched, catalog.KindSched, catalog.KindXCheck}
	tenants := []string{"acme", "bolt"}
	recs := make([]any, 0, 10240)
	for i := 0; i < cap(recs); i++ {
		recs = append(recs, catalog.Record{
			Schema:      catalog.SchemaVersion,
			Fingerprint: catalog.SubFingerprint("bench", strconv.Itoa(i)),
			Tenant:      tenants[i%len(tenants)],
			Kind:        kinds[rng.Intn(len(kinds))],
			Scenario:    catalogScenarios[rng.Intn(len(catalogScenarios))],
			Seed:        int64(rng.Intn(64)),
			Config:      catalog.Config{TamWidth: 8 + 4*rng.Intn(11), Partitioner: "lpt", Algorithm: "March C-"},
			Features:    catalog.Features{Cores: 1 + rng.Intn(12), ScanBits: rng.Intn(1 << 16), Memories: rng.Intn(24)},
			Metrics:     catalog.Metrics{TestCycles: 1 + rng.Intn(5_000_000), Sessions: 1 + rng.Intn(4)},
		})
	}
	log, err := wal.Open(filepath.Join(dir, "catalog.jsonl"))
	if err != nil {
		return nil, err
	}
	if err := log.Rewrite(recs); err != nil {
		log.Close()
		return nil, err
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	st, err := catalog.Open(dir)
	if err != nil {
		return nil, err
	}
	// The index stays readable after Close, so the directory can go now.
	if err := st.Close(); err != nil {
		return nil, err
	}
	return func() (opResult, error) {
		returned, total := 0, 0
		for _, tenant := range tenants {
			for _, sc := range catalogScenarios {
				page, n := st.Page(catalog.Query{Tenant: tenant, Scenario: sc, Kind: catalog.KindSched, Limit: 50})
				returned += len(page)
				total += n
			}
		}
		return opResult{work: int64(returned), unit: "records",
			check: fmt.Sprintf("held=%d returned=%d total=%d", st.Len(), returned, total)}, nil
	}, nil
}
