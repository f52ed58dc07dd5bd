package xcheck

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"steac/internal/memory"
)

// detectionDigest hashes a campaign's per-fault detection cycles, in fault
// order, together with its golden length and fault counts.
func detectionDigest(t *testing.T, sim *CampaignSim) string {
	t.Helper()
	det := sim.DetectBatch(context.Background(), 0, sim.Faults())
	h := sha256.New()
	fmt.Fprintf(h, "sites=%d faults=%d golden=%d\n", sim.Sites(), sim.Faults(), sim.GoldenCycles())
	for _, at := range det {
		fmt.Fprintf(h, "%d\n", at)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func equivCounts(r EquivResult) string {
	return fmt.Sprintf("pass=%v sessions=%d cycles=%d checks=%d gates=%d", r.Pass, r.Sessions, r.Cycles, r.Checks, r.Gates)
}

// The gate-level benches' drive protocols are pinned by what they
// produce: the detection cycle of every fault of three campaigns and the
// counts of the matching equivalence checks.  The wanted values were
// recorded before the scalar, traced and packed drivers were folded into
// one driver per bench; any change to a protocol moves them.
func TestBenchProtocolsGolden(t *testing.T) {
	ctx := context.Background()
	t.Run("tpg two-port", func(t *testing.T) {
		alg := mustAlg(t, "March Y")
		mems := []memory.Config{
			{Name: "a", Words: 8, Bits: 2, Kind: memory.TwoPort},
			{Name: "b", Words: 8, Bits: 3, Kind: memory.SinglePort},
		}
		sim, err := NewTPGCampaignSim("tpg2p", alg, mems, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := detectionDigest(t, sim), "1646e785fa07c56d6e1f8d04becf2b65b5506af085ab33771b1e29c2df558372"; got != want {
			t.Errorf("detection digest %s, want %s", got, want)
		}
		res, err := VerifyBISTContext(ctx, "tpg2p", alg, mems, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := equivCounts(res), "pass=true sessions=4 cycles=256 checks=5720 gates=137"; got != want {
			t.Errorf("equivalence %s, want %s", got, want)
		}
	})
	t.Run("controller 8", func(t *testing.T) {
		sim, err := NewControllerCampaignSim("ctl8", 8, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := detectionDigest(t, sim), "986700ce84194dd9edacbfadb15a6c73e320cf10477992fe2726de089dfe7614"; got != want {
			t.Errorf("detection digest %s, want %s", got, want)
		}
		res, err := VerifyControllerContext(ctx, "ctl8", 8, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := equivCounts(res), "pass=true sessions=2 cycles=2136 checks=23496 gates=131"; got != want {
			t.Errorf("equivalence %s, want %s", got, want)
		}
	})
	t.Run("wrapper", func(t *testing.T) {
		core := xcheckCore("wgold", 5, 7, []int{9, 6, 13}, 12, 42)
		sim, err := NewWrapperCampaignSim("wgold", core, 2, Options{MaxPatterns: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := detectionDigest(t, sim), "6e8ea244475e5e55ee6a409a6228f0c78be9bbe2c73ea97fb20b8b7ad6c6cf54"; got != want {
			t.Errorf("detection digest %s, want %s", got, want)
		}
		res, _, err := VerifyWrapperContext(ctx, "wgold", core, 2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := equivCounts(res), "pass=true sessions=2 cycles=283 checks=488 gates=168"; got != want {
			t.Errorf("equivalence %s, want %s", got, want)
		}
	})
}
