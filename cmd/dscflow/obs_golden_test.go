package main

import (
	"bytes"
	"context"
	"regexp"
	"testing"

	"steac/internal/core"
	"steac/internal/obs"
)

// durRE matches the rendered wall-time column of the span tree (Go
// duration strings, microsecond-rounded) together with its right-alignment
// padding: the string width varies with the measured time, so the padding
// must be scrubbed with it.  Counter values and call counts are
// deterministic at Workers=1 and stay pinned.
var durRE = regexp.MustCompile(`\s+(?:[0-9]+h)?(?:[0-9]+m)?[0-9]+(?:\.[0-9]+)?(?:ns|µs|ms|s)\b`)

// TestObsReportGolden pins the `dscflow -obs` report for a Workers=1 flow:
// the span taxonomy, which counters fire, and their exact totals.
func TestObsReportGolden(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.Reset()

	in, err := dscFlowInput(true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunFlowContext(context.Background(), in); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	obs.WriteReport(&buf)
	scrubbed := durRE.ReplaceAllString(buf.String(), " <dur>")
	checkGolden(t, "obsreport", scrubbed)
}
