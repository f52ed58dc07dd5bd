package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// chipCost is the measured sign-off op time of one universe chip.
type chipCost struct {
	Seed int64   `json:"seed"`
	MS   float64 `json:"ms"`
}

// signoffUniverse is the number of chips per scenario that signoff draws
// from: seeds 1..signoffUniverse.
const signoffUniverse = 100

//go:embed signoff_costs.json
var signoffCostsJSON []byte

var (
	costsOnce sync.Once
	costs     map[string][]chipCost
)

// signoffCosts returns the committed cost table, per scenario.
func signoffCosts() map[string][]chipCost {
	costsOnce.Do(func() {
		if err := json.Unmarshal(signoffCostsJSON, &costs); err != nil {
			panic(fmt.Sprintf("perfbench: signoff_costs.json: %v", err))
		}
	})
	return costs
}

// sortedCosts returns a scenario's universe chips, cheapest first.
func sortedCosts(scenario string) []chipCost {
	sorted := append([]chipCost(nil), signoffCosts()[scenario]...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].MS < sorted[b].MS })
	return sorted
}

// measureSignoffCosts times the sign-off op on every universe chip (best
// of two) and writes the table that planSignoff stratifies on.  Only the
// ranking within a scenario matters, so the table need not be rebuilt
// when the code gets faster; rebuilding it changes which chips each seed
// selects.
func measureSignoffCosts(w io.Writer) error {
	out := map[string][]chipCost{}
	for _, name := range generatedChips {
		for seed := int64(1); seed <= signoffUniverse; seed++ {
			op := Op{ID: 0, Kind: "signoff", Chip: &chipRef{Scenario: name, Seed: seed}}
			best := time.Duration(0)
			for rep := 0; rep < 2; rep++ {
				inputs, err := prepareSignoff([]Op{op})
				if err != nil {
					return err
				}
				r := (&signoffRun{inputs: inputs}).exec(context.Background(), op)
				if r.failed() {
					return fmt.Errorf("%s/%d: %v", name, seed, r.check)
				}
				if best == 0 || r.lat < best {
					best = r.lat
				}
			}
			out[name] = append(out[name], chipCost{Seed: seed, MS: float64(best.Microseconds()) / 1000})
			fmt.Fprintf(os.Stderr, "%s/%d %.1f ms\n", name, seed, ms(best))
		}
	}
	blob, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
