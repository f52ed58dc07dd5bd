package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"steac/internal/campaign"
	"steac/internal/catalog"
	"steac/internal/memory"
	"steac/internal/serve"
)

// Workload names.
const (
	wFlowSweep    = "flow-sweep"
	wSignoff      = "signoff"
	wCampaignJobs = "campaign-jobs"
	wCatalogServe = "catalog-serve"
)

// generatedChips are the builtin scenarios sampled at fresh seeds; dsc is
// the pinned paper chip.
var generatedChips = []string{"hybrid-power", "p1500-lbist", "memory-heavy", "manycore"}

// dscCycles is the paper's headline session-based schedule length.
const dscCycles = 4376942

// workload describes one traffic mix.  The op count of a run is fixed by
// the workload and --seconds (opsPerSecond × seconds), never by the clock,
// so every run's samples hold the same mix of op kinds.
type workload struct {
	name         string
	clients      int
	daemon       bool    // runs against an in-process steacd
	opsPerSecond float64 // nominal rate on a 2-vCPU VM
	// plan returns n timed ops; first is the id of the first of them
	// (op id i belongs to client i mod clients).
	plan func(rng *rand.Rand, seed int64, first, n int) []Op
	// warmup returns the warm-up prefix, timed inside setup_s only.  Its
	// work is the same for every seed, so setup_s measures the restart.
	warmup func(rng *rand.Rand, seed int64) []Op
}

var workloads = map[string]*workload{
	wFlowSweep:    {name: wFlowSweep, clients: 2, daemon: true, opsPerSecond: 140, plan: planFlowSweep, warmup: warmFlowSweep},
	wSignoff:      {name: wSignoff, clients: 1, opsPerSecond: 4, plan: planSignoff, warmup: warmSignoff},
	wCampaignJobs: {name: wCampaignJobs, clients: 2, daemon: true, opsPerSecond: 20, plan: planCampaignJobs, warmup: warmCampaignJobs},
	wCatalogServe: {name: wCatalogServe, clients: 2, daemon: true, opsPerSecond: 650, plan: planCatalogServe, warmup: warmCatalogServe},
}

// Op is one operation of a run.  Exactly one request field is set,
// according to Kind.
type Op struct {
	ID     int    `json:"id"`
	Kind   string `json:"kind"`
	Client int    `json:"client"`

	Flow      *serve.FlowRequest      `json:"flow,omitempty"`
	Sched     *serve.SchedRequest     `json:"sched,omitempty"`
	Job       *serve.JobRequest       `json:"job,omitempty"`
	Query     *catalog.Query          `json:"query,omitempty"`  // list and compare
	Format    string                  `json:"format,omitempty"` // compare: csv or html
	Pick      int                     `json:"pick,omitempty"`   // record fetch: index into the tenant's fixture fingerprints
	Recommend *serve.RecommendRequest `json:"recommend,omitempty"`
	Chip      *chipRef                `json:"chip,omitempty"` // signoff
}

// chipRef names one generated scenario chip.
type chipRef struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
}

// buildPlan returns the warm-up prefix and the timed ops of one run.  The
// same (workload, seed, n) always yields byte-identical ops.  Ops are
// numbered across both, and op i belongs to client i mod clients.
func buildPlan(w *workload, seed int64, n int) (warm, timed []Op) {
	warm = w.warmup(rand.New(rand.NewSource(^seed)), seed)
	all := append(warm, w.plan(rand.New(rand.NewSource(seed)), seed, len(warm), n)...)
	for i := range all {
		all[i].ID = i
		all[i].Client = i % w.clients
	}
	return all[:len(warm)], all[len(warm):]
}

// warmFlowSweep: dsc flows and sweeps, whose work is the same at any seed.
func warmFlowSweep(_ *rand.Rand, seed int64) []Op {
	var ops []Op
	for i := 0; i < 4; i++ {
		s := freshSeed(seed, "warm", i)
		ops = append(ops,
			Op{Kind: "flow-dsc", Flow: &serve.FlowRequest{Chip: "dsc", Seed: s}},
			Op{Kind: "sched", Sched: &serve.SchedRequest{Chip: "dsc", Seed: s, TestPins: []int{24, 28, 32, 36, 40, 48}}})
	}
	return ops
}

// warmSignoff: one manycore chip from the middle of its cost range.
func warmSignoff(rng *rand.Rand, _ int64) []Op {
	sorted := sortedCosts("manycore")
	mid := sorted[len(sorted)*9/20 : len(sorted)*11/20]
	return []Op{{Kind: "signoff", Chip: &chipRef{Scenario: "manycore", Seed: mid[rng.Intn(len(mid))].Seed}}}
}

// warmCampaignJobs: one job of each shape.
func warmCampaignJobs(_ *rand.Rand, seed int64) []Op {
	var ops []Op
	for i, k := range jobShapes {
		ops = append(ops, jobOp(k, freshSeed(seed, "warm", i), memfaultAlgs[0]))
	}
	return ops
}

// warmCatalogServe: each read kind once per client, plus each client's
// first hot-set flow.
func warmCatalogServe(rng *rand.Rand, seed int64) []Op {
	var ops []Op
	for _, k := range []string{"list", "get", "compare-csv", "compare-html", "recommend", "flow-hot"} {
		for client := 0; client < 2; client++ {
			ops = append(ops, catalogOp(rng, seed, k, client, len(ops), client))
		}
	}
	return ops
}

// freshSeed derives a chip or campaign seed for item i of a stream from the
// run seed, far from the seeds the fixture uses.
func freshSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return int64(h.Sum64()>>33) + 1<<31
}

// kinds expands exact per-kind counts for n ops (shares sum to 1; the
// last kind takes the rounding remainder) and shuffles them.
func kinds(rng *rand.Rand, n int, names []string, shares []float64) []string {
	out := make([]string, 0, n)
	for i, name := range names {
		k := int(math.Round(shares[i] * float64(n)))
		if i == len(names)-1 {
			k = n - len(out)
		}
		for j := 0; j < k && len(out) < n; j++ {
			out = append(out, name)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// sweptPins are the non-default test-pin budgets flow-sweep explores.  At
// the low end they hit the daemon's 500 on an infeasible non-session
// baseline for some chips; those ops stay in the mix and count as failed.
var sweptPins = []int{16, 20, 24, 28, 32, 40, 48}

// planFlowSweep: cold /v1/flow requests over all five builtin chips
// interleaved with /v1/sched pin sweeps.  Shares keep p50 inside the
// generated-chip flows and the tail inside the dsc flows.  Within each
// kind, chips and budgets rotate, so every run has the same composition.
func planFlowSweep(rng *rand.Rand, seed int64, _, n int) []Op {
	scheds := append([]string{"dsc"}, generatedChips...)
	ops := make([]Op, n)
	count := map[string]int{}
	for i, k := range kinds(rng, n, []string{"sched", "flow-dsc", "flow"}, []float64{0.25, 0.12, 0.63}) {
		s := freshSeed(seed, "flow-sweep", i)
		c := count[k]
		count[k]++
		switch k {
		case "sched":
			ops[i] = Op{Kind: k, Sched: &serve.SchedRequest{Chip: scheds[c%len(scheds)], Seed: s,
				TestPins: []int{24, 28, 32, 36, 40, 48}}}
		case "flow-dsc":
			req := &serve.FlowRequest{Chip: "dsc", Seed: s}
			// Every third dsc flow runs at a budget that trips the
			// infeasible-baseline defect (500 internal).
			if c%3 == 2 {
				req.TestPins = []int{20, 24}[c/3%2]
			}
			ops[i] = Op{Kind: k, Flow: req}
		default:
			req := &serve.FlowRequest{Chip: generatedChips[c%len(generatedChips)], Seed: s}
			// Half the flows run at the chip's own budget, half sweep.
			if c/len(generatedChips)%2 == 1 {
				req.TestPins = sweptPins[c/(2*len(generatedChips))%len(sweptPins)]
			}
			ops[i] = Op{Kind: k, Flow: req}
		}
	}
	return ops
}

// planSignoff: seeded scenario chips through flow+ATE, Verilog emit and
// gate-level equivalence.  Sign-off time varies ~10x from chip to chip,
// so chips are drawn by stratified sampling from a fixed universe whose
// per-chip op times were measured once (signoff_costs.json, rebuilt by
// --mode signoff-costs): each scenario's universe is sorted by cost and
// cut into as many equal strata as the run needs chips of it, and the
// seed picks one chip per stratum.  Every run covers each scenario's cost
// range the same way while different seeds run different chips.  The
// scenario shares put p50 and the tail inside the dense cost range of the
// two hybrid-BIST scenarios rather than in the gap between scenarios.
func planSignoff(rng *rand.Rand, _ int64, _, n int) []Op {
	ks := kinds(rng, n, generatedChips, []float64{0.375, 0.375, 0.125, 0.125})
	per := map[string]int{}
	for _, k := range ks {
		per[k]++
	}
	picks := map[string][]int64{}
	for _, name := range generatedChips {
		sorted := sortedCosts(name)
		for b := 0; b < per[name]; b++ {
			// A run needing more chips than the universe holds reuses
			// chips (strata of one).
			lo, hi := b*len(sorted)/per[name], (b+1)*len(sorted)/per[name]
			picks[name] = append(picks[name], sorted[lo+rng.Intn(max(hi-lo, 1))].Seed)
		}
		rng.Shuffle(len(picks[name]), func(i, j int) { picks[name][i], picks[name][j] = picks[name][j], picks[name][i] })
	}
	ops := make([]Op, n)
	for i, k := range ks {
		ops[i] = Op{Kind: "signoff", Chip: &chipRef{Scenario: k, Seed: picks[k][0]}}
		picks[k] = picks[k][1:]
	}
	return ops
}

// jobShapes is the campaign menu, cheapest first.  Each shape has a fixed
// amount of work (about 7, 26, 60-100 and 250 ms alone on a 2-vCPU VM);
// every job is made fresh (a new campaign fingerprint) by seeded names
// and fault-sampling seeds.  The shares put p50 inside job-tpg and the
// tail inside job-wrapper.
var (
	jobShapes = []string{"job-controller", "job-tpg", "job-memfault", "job-wrapper"}
	jobShares = []float64{0.20, 0.40, 0.25, 0.15}
	// memfaultAlgs rotate over the memfault jobs in equal shares.
	memfaultAlgs = []string{"March C-", "March X", "March Y", "March B"}
)

// planCampaignJobs: fresh memfault and xcheck campaigns submitted through
// /v1/jobs and polled to done.
func planCampaignJobs(rng *rand.Rand, seed int64, _, n int) []Op {
	ops := make([]Op, n)
	memfaults := 0
	for i, k := range kinds(rng, n, jobShapes, jobShares) {
		alg := memfaultAlgs[memfaults%len(memfaultAlgs)]
		if k == "job-memfault" {
			memfaults++
		}
		ops[i] = jobOp(k, freshSeed(seed, "campaign-jobs", i), alg)
	}
	return ops
}

// jobOp builds one fresh campaign job of a menu shape.
func jobOp(kind string, s int64, alg string) Op {
	name := fmt.Sprintf("bench-%d", s)
	var spec campaign.Spec
	switch kind {
	case "job-controller":
		spec = &campaign.XCheckSpec{Campaign: "controller", Name: name, NGroups: 8}
	case "job-tpg":
		spec = &campaign.XCheckSpec{Campaign: "tpg", Name: name, Algorithm: "March C-",
			Memories:  []memory.Config{{Name: name, Words: 128, Bits: 8, Kind: memory.SinglePort}},
			MaxFaults: 252, Seed: s}
	case "job-memfault":
		spec = &campaign.CoverageSpec{Algorithm: alg, AllFaults: true,
			Config: memory.Config{Name: name, Words: 256, Bits: 8, Kind: memory.SinglePort}}
	default:
		spec = &campaign.XCheckSpec{Campaign: "wrapper", Name: name, Core: "TV",
			TamWidth: 2, MaxFaults: 63, MaxPatterns: 4, Seed: s}
	}
	raw, err := spec.Marshal()
	if err != nil {
		panic(err)
	}
	return Op{Kind: kind, Job: &serve.JobRequest{Kind: spec.Kind(), Spec: raw}}
}

// hotFlows is the size of each tenant's hot set of flow requests in
// catalog-serve: the first touch computes and ingests, repeats hit the
// memo cache.  The sets of the two tenants are disjoint, so every
// tenant's catalog view depends only on its own client's op order.
const hotFlows = 4

// catalogKinds and catalogShares are the catalog-serve mix.  Fetches and
// hot-set cache hits (30%) cost ~0.1 ms; listings and compares (60%) all
// scan the store and cost ~2 ms, so p50 falls a third of the way into
// that block; recommendations (10%) rank a whole tenant and hold the tail.
var (
	catalogKinds  = []string{"get", "flow-hot", "list", "compare-csv", "compare-html", "recommend"}
	catalogShares = []float64{0.15, 0.15, 0.35, 0.125, 0.125, 0.10}
)

// planCatalogServe: a read-mostly mix against the seeded catalog, each
// client under its own tenant.
func planCatalogServe(rng *rand.Rand, seed int64, first, n int) []Op {
	ops := make([]Op, n)
	count := map[string]int{}
	for i, k := range kinds(rng, n, catalogKinds, catalogShares) {
		ops[i] = catalogOp(rng, seed, k, (first+i)%2, first+i, count[k])
		count[k]++
	}
	return ops
}

// catalogOp builds op id, the c-th of its kind, for a client.  Filters
// name a kind and a scenario (rotating), so each listing is a slice of one
// tenant's records.
func catalogOp(rng *rand.Rand, seed int64, kind string, client, id, c int) Op {
	scenarios := append([]string{"dsc"}, generatedChips...)
	q := &catalog.Query{Scenario: scenarios[c%len(scenarios)], Kind: catalog.KindSched}
	switch kind {
	case "list":
		q.Limit = 50
		return Op{Kind: kind, Query: q}
	case "get":
		return Op{Kind: kind, Pick: rng.Intn(1 << 20)}
	case "compare-csv", "compare-html":
		q.Limit = 200
		return Op{Kind: kind, Query: q, Format: kind[len("compare-"):]}
	case "recommend":
		return Op{Kind: kind, Recommend: &serve.RecommendRequest{Scenario: generatedChips[c%len(generatedChips)],
			Seed: freshSeed(seed, "recommend", id), MaxTamWidth: 48}}
	}
	j := rng.Intn(hotFlows)
	return Op{Kind: kind, Flow: &serve.FlowRequest{Chip: generatedChips[j%len(generatedChips)],
		Seed: freshSeed(seed, fmt.Sprintf("hot/%d", client), j)}}
}

// planJSON renders ops canonically (the same-seed determinism contract is
// tested on these bytes).
func planJSON(ops []Op) []byte {
	b, err := json.Marshal(ops)
	if err != nil {
		panic(err)
	}
	return b
}
