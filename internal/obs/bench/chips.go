package bench

import (
	"context"
	"fmt"

	"steac/internal/brains"
	"steac/internal/core"
	"steac/internal/scenario"
	"steac/internal/sched"
)

// maxStamp is the most instances one scenario core template may stamp out.
const maxStamp = 16

// SizedSpec derives an n-core chip (3 <= n <= 2+2*maxStamp) from the dsc
// builtin: USB is stamped out n-2 times beside one TV and one JPEG, and
// TV takes the instances past USB's maxStamp.  The chip mixes scan-only,
// scan-plus-functional and functional-only cores, keeps the 22 DSC
// memories, and — like dsc — is fully pinned, so every seed yields the
// same chip.  The scheduler's suite op, root benchmarks and tests size
// their chips with it: 9 cores is the exhaustive Bell(9) search, more than
// 10 the greedy path.
func SizedSpec(n int) (*scenario.Spec, error) {
	base, err := scenario.Resolve("dsc")
	if err != nil {
		return nil, err
	}
	usb := min(n-2, maxStamp)
	count := map[string]int{"USB": usb, "TV": n - 1 - usb, "JPEG": 1}
	cores := base.Cores
	for i := range cores {
		c := count[cores[i].Name]
		cores[i].Count = &scenario.IntDist{Min: c, Max: c}
	}
	return scenario.ResolveSpec(&scenario.Spec{
		Name: fmt.Sprintf("dsc-%dcore", n), Base: "dsc", Cores: cores,
	})
}

// SizedChip generates SizedSpec(n)'s chip and its schedulable tests.
func SizedChip(n int) (*scenario.Chip, []sched.Test, error) {
	spec, err := SizedSpec(n)
	if err != nil {
		return nil, nil, err
	}
	chip, err := scenario.Generate(spec, 0)
	if err != nil {
		return nil, nil, err
	}
	tests, err := ChipTests(chip)
	return chip, tests, err
}

// ChipTests is a generated chip's schedulable test set as the flow builds
// it: its cores' pattern sets, one BIST test per BRAINS sequencer group of
// its memories, then its logic-BIST sessions.
func ChipTests(chip *scenario.Chip) ([]sched.Test, error) {
	var bist []sched.BISTGroup
	if len(chip.Memories) > 0 {
		br, err := brains.CompileContext(context.Background(), chip.Memories, chip.BIST)
		if err != nil {
			return nil, err
		}
		bist = core.BISTGroups(br)
	}
	return sched.BuildTests(chip.Cores, append(bist, chip.ExtraBIST...))
}
