package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"steac/internal/campaign"
	"steac/internal/catalog"
	"steac/internal/recommend"
	"steac/internal/scenario"
)

// perLayer lists the traced run's metrics in print order.  Times are mean
// ms of self time per timed op; counts are per op or per job.
var perLayer = []struct{ name, unit string }{
	{"serve.front_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.polls_per_job", "count"},
	{"scenario.generate_ms", "ms"},
	{"stil.parse_ms", "ms"},
	{"brains.compile_ms", "ms"},
	{"sched.schedule_ms", "ms"},
	{"insertion.insert_ms", "ms"},
	{"pattern.translate_ms", "ms"},
	{"sched.partitions_per_op", "count"},
	{"pattern.cycles_per_op", "count"},
	{"ate.verify_ms", "ms"},
	{"bist.cycles_per_op", "count"},
	{"netlist.emit_ms", "ms"},
	{"xcheck.equiv_ms", "ms"},
	{"xcheck.equiv_allocs_per_op", "count"},
	{"xcheck.pin_checks_per_op", "count"},
	{"xcheck.controller_ms", "ms"},
	{"xcheck.wrapper_ms", "ms"},
	{"campaign.run_ms", "ms"},
	{"campaign.journal_ms", "ms"},
	{"campaign.shards_per_job", "count"},
	{"memfault.faults_per_op", "count"},
	{"netlist.packed_ticks_per_op", "count"},
	{"jobdb.records_per_job", "count"},
	{"catalog.open_ms", "ms"},
	{"catalog.put_ms", "ms"},
	{"catalog.puts_per_op", "count"},
	{"catalog.list_ms", "ms"},
	{"catalog.scan_ratio", "ratio"},
	{"report.render_ms", "ms"},
	{"recommend.rank_ms", "ms"},
	{"go.alloc_mb_per_op", "MB"},
	{"trace.overhead_frac", "ratio"},
}

// layerContext is what the per-layer computation reads.
type layerContext struct {
	c                    config
	fix                  string
	timed                []Op
	plain, traced        phase
	sess                 *session // the traced session; its daemon is stopped, its state kept
	jobLines0, jobLines1 int
}

// layerMetrics derives every per-layer metric of the traced run.  Layers
// that obs times (the flow stages) come from obs span deltas; layers the
// benchmark wraps (emit, xcheck) from its own spans; the rest are replayed
// from the same inputs through their public functions.
func layerMetrics(ctx context.Context, lc layerContext) ([]metric, error) {
	n := float64(len(lc.timed))
	p := lc.traced
	v := map[string]float64{}
	perOp := func(nanos int64) float64 { return float64(nanos) / 1e6 / n }
	self := selfTimes(p.trace)

	// Engine stages inside the daemon or the in-process flow.
	sp := p.spans
	schedOutsideFlows := max(0, sp["sched.session_based"]-sp["flow.schedule"])
	v["stil.parse_ms"] = perOp(sp["flow.parse"])
	v["brains.compile_ms"] = perOp(sp["flow.brains"])
	v["sched.schedule_ms"] = perOp(sp["flow.schedule"] + schedOutsideFlows)
	v["insertion.insert_ms"] = perOp(sp["flow.insert"])
	v["pattern.translate_ms"] = perOp(sp["flow.translate"])
	v["ate.verify_ms"] = perOp(sp["flow.verify"])
	cnt := func(name string) float64 { return float64(p.counters[name]) / n }
	v["sched.partitions_per_op"] = cnt("sched.partitions_evaluated")
	v["pattern.cycles_per_op"] = cnt("pattern.cycles_streamed")
	v["bist.cycles_per_op"] = cnt("bist.cycles")
	v["xcheck.pin_checks_per_op"] = cnt("xcheck.pin_checks")
	v["memfault.faults_per_op"] = cnt("memfault.faults_simulated")
	v["netlist.packed_ticks_per_op"] = cnt("netlist.packed_ticks")
	v["catalog.puts_per_op"] = cnt("serve.catalog_ingested")
	if lookups := p.counters["serve.cache_hits"] + p.counters["serve.cache_misses"]; lookups > 0 {
		v["serve.cache_hit_ratio"] = float64(p.counters["serve.cache_hits"]) / float64(lookups)
	}
	v["netlist.emit_ms"] = perOp(self["netlist.emit"].Nanoseconds())
	v["xcheck.equiv_ms"] = perOp(self["xcheck.equiv"].Nanoseconds())
	v["xcheck.controller_ms"] = perOp(self["xcheck.controller"].Nanoseconds())
	v["xcheck.wrapper_ms"] = perOp(self["xcheck.wrapper"].Nanoseconds())
	if lc.sess.so != nil {
		v["xcheck.equiv_allocs_per_op"] = float64(lc.sess.so.allocs) / n
	}
	v["go.alloc_mb_per_op"] = float64(p.alloc) / (1 << 20) / n
	v["trace.overhead_frac"] = (n / p.wall.Seconds()) / (n / lc.plain.wall.Seconds())

	gen, err := replayGenerate(lc.timed, p.results)
	if err != nil {
		return nil, err
	}
	v["scenario.generate_ms"] = perOp(gen.Nanoseconds())

	jobs, polls := 0, 0
	for i, op := range lc.timed {
		if op.Job != nil {
			jobs++
			polls += p.results[i].polls
		}
	}
	if jobs > 0 {
		v["serve.polls_per_job"] = float64(polls) / float64(jobs)
		v["campaign.shards_per_job"] = float64(p.counters["campaign.shards_completed"]) / float64(jobs)
		v["jobdb.records_per_job"] = float64(lc.jobLines1-lc.jobLines0) / float64(jobs)
		run, journal, err := replayCampaigns(ctx, lc)
		if err != nil {
			return nil, err
		}
		v["campaign.run_ms"] = perOp(run.Nanoseconds())
		v["campaign.journal_ms"] = perOp(journal.Nanoseconds())
	}

	if lc.c.w.daemon {
		cat, err := replayCatalog(lc)
		if err != nil {
			return nil, err
		}
		v["catalog.open_ms"] = ms(cat.open)
		v["catalog.put_ms"] = perOp(cat.put.Nanoseconds())
		v["catalog.list_ms"] = perOp(cat.list.Nanoseconds())
		v["report.render_ms"] = perOp(cat.render.Nanoseconds())
		v["recommend.rank_ms"] = perOp(cat.rank.Nanoseconds())
		if cat.returned > 0 {
			v["catalog.scan_ratio"] = float64(cat.held) / float64(cat.returned)
		}
		// The front door is what the client waited for minus the engine
		// and catalog work inside the handlers.
		rt := self["serve.request"] + self["serve.poll"]
		engine := time.Duration(sp["flow"] + schedOutsideFlows)
		front := rt - engine - cat.put - cat.list - cat.render - cat.rank
		v["serve.front_ms"] = perOp(max(0, front.Nanoseconds()))
	}

	out := make([]metric, len(perLayer))
	for i, m := range perLayer {
		out[i] = metric{m.name, m.unit, v[m.name]}
	}
	return out, nil
}

// replayCap bounds how many ops of one kind a replay re-runs; the replayed
// total is scaled to all matching ops.
const replayCap = 200

// sample returns the indices of ops that keep accepts, thinned to every
// k-th so at most limit remain, and the factor scaling their total to
// all accepted ops.
func sample(ops []Op, limit int, keep func(i int, op Op) bool) ([]int, float64) {
	var all []int
	for i, op := range ops {
		if keep(i, op) {
			all = append(all, i)
		}
	}
	if len(all) <= limit {
		return all, 1
	}
	k := (len(all) + limit - 1) / limit
	var out []int
	for j := 0; j < len(all); j += k {
		out = append(out, all[j])
	}
	return out, float64(len(all)) / float64(len(out))
}

// replayGenerate times scenario chip generation for the ops whose
// handler generated a chip: flows and sweeps the daemon computed (cache
// hits generate nothing), recommendations, and sign-off chips.
func replayGenerate(ops []Op, rs []result) (time.Duration, error) {
	ref := func(op Op) (name string, seed int64, flow bool) {
		switch {
		case op.Flow != nil:
			return op.Flow.Chip, op.Flow.Seed, true
		case op.Sched != nil:
			return op.Sched.Chip, op.Sched.Seed, false
		case op.Recommend != nil:
			return op.Recommend.Scenario, op.Recommend.Seed, false
		case op.Chip != nil:
			return op.Chip.Scenario, op.Chip.Seed, true
		}
		return "", 0, false
	}
	idx, scale := sample(ops, replayCap, func(i int, op Op) bool {
		name, _, _ := ref(op)
		return name != "" && name != "dsc" && !rs[i].cached
	})
	var total time.Duration
	for _, i := range idx {
		name, seed, flow := ref(ops[i])
		t0 := time.Now()
		chip, err := scenario.GenerateByName(name, seed)
		if err == nil && flow {
			_, err = chip.FlowInput(false)
		}
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
	}
	return time.Duration(float64(total) * scale), nil
}

// campaignCap bounds the replayed campaigns (each runs twice).
const campaignCap = 40

// replayCampaigns runs job specs through campaign.Run twice: with a
// checkpoint directory (journal fsyncs included) and fully in memory.
func replayCampaigns(ctx context.Context, lc layerContext) (run, journal time.Duration, err error) {
	dir := filepath.Join(lc.c.state, "work", fmt.Sprintf("replay-%s-%d", lc.c.w.name, lc.c.seed))
	defer os.RemoveAll(dir)
	idx, scale := sample(lc.timed, campaignCap, func(_ int, op Op) bool { return op.Job != nil })
	for _, i := range idx {
		op := lc.timed[i]
		spec, err := campaign.Decode(op.Job.Kind, op.Job.Spec)
		if err != nil {
			return 0, 0, err
		}
		ck := filepath.Join(dir, fmt.Sprint(op.ID))
		t0 := time.Now()
		if _, err := campaign.Run(ctx, spec, campaign.Options{Dir: ck}); err != nil {
			return 0, 0, err
		}
		withDir := time.Since(t0)
		t0 = time.Now()
		if _, err := campaign.Run(ctx, spec, campaign.Options{}); err != nil {
			return 0, 0, err
		}
		run += withDir
		journal += withDir - time.Since(t0)
		if err := os.RemoveAll(ck); err != nil {
			return 0, 0, err
		}
	}
	return time.Duration(float64(run) * scale), time.Duration(float64(journal) * scale), nil
}

// catalogReplay holds the catalog layer's replayed costs.
type catalogReplay struct {
	open, put, list, render, rank time.Duration
	held, returned                int
}

// replayCatalog reopens the fixture catalog, re-puts the records the
// traced pass ingested into a side store, and re-runs the workload's
// listings, compare renders and recommendations against the catalog as
// the run left it.
func replayCatalog(lc layerContext) (catalogReplay, error) {
	var cr catalogReplay
	side := filepath.Join(lc.c.state, "work", fmt.Sprintf("catalog-%s-%d", lc.c.w.name, lc.c.seed))
	defer os.RemoveAll(side)
	if err := os.RemoveAll(side); err != nil {
		return cr, err
	}
	if err := copyTree(filepath.Join(lc.fix, "catalog"), filepath.Join(side, "open")); err != nil {
		return cr, err
	}
	t0 := time.Now()
	fresh, err := catalog.Open(filepath.Join(side, "open"))
	cr.open = time.Since(t0)
	if err != nil {
		return cr, err
	}
	if err := fresh.Close(); err != nil {
		return cr, err
	}

	st, err := catalog.Open(filepath.Join(lc.sess.dir, "catalog"))
	if err != nil {
		return cr, err
	}
	defer st.Close()
	puts, err := catalog.Open(filepath.Join(side, "put"))
	if err != nil {
		return cr, err
	}
	for _, rec := range st.List(catalog.Query{}) {
		if rec.CreatedUnixMS < lc.traced.startMS {
			continue
		}
		t0 := time.Now()
		if err := puts.Put(rec); err != nil {
			puts.Close()
			return cr, err
		}
		cr.put += time.Since(t0)
	}
	if err := puts.Close(); err != nil {
		return cr, err
	}

	list := func(q catalog.Query) []catalog.Record {
		t0 := time.Now()
		recs := st.List(q)
		cr.list += time.Since(t0)
		cr.held += st.Len()
		cr.returned += len(recs)
		return recs
	}
	idx, scale := sample(lc.timed, replayCap, func(_ int, op Op) bool {
		return op.Query != nil || op.Recommend != nil
	})
	for _, i := range idx {
		op := lc.timed[i]
		tenant := benchTenants[op.Client].ID
		switch {
		case op.Kind == "list":
			q := *op.Query
			q.Tenant, q.Limit = tenant, 0
			list(q)
		case op.Format != "":
			q := *op.Query
			q.Tenant = tenant
			recs := list(q)
			t0 := time.Now()
			cmp := catalog.CompareRecords(recs)
			if op.Format == "csv" {
				_ = cmp.CSV()
			} else {
				_ = cmp.HTML()
			}
			cr.render += time.Since(t0)
		case op.Recommend != nil:
			recs := list(catalog.Query{Tenant: tenant})
			chip, err := scenario.GenerateByName(op.Recommend.Scenario, op.Recommend.Seed)
			if err != nil {
				return cr, err
			}
			t0 := time.Now()
			_, err = recommend.Recommend(recs, recommend.Request{Cores: chip.Cores, Memories: chip.Memories,
				K: op.Recommend.K, MaxTamWidth: op.Recommend.MaxTamWidth})
			cr.rank += time.Since(t0)
			if err != nil {
				return cr, err
			}
		}
	}
	for _, d := range []*time.Duration{&cr.list, &cr.render, &cr.rank} {
		*d = time.Duration(float64(*d) * scale)
	}
	return cr, nil
}
