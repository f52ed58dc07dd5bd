package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"steac/internal/campaign"
)

// Property tests for the content-addressed cache key.  The canonicalization
// contract (see requestKey and canonical):
//
//  1. The key is a function of the decoded request, so JSON field order,
//     whitespace, and encoding details of the wire body never split it.
//  2. The non-semantic tuning fields (workers, timeout_ms) are zeroed out
//     of the key: varying them joins the same cache line.
//  3. Requests with different semantics never share a key, and the same
//     payload on different endpoints never shares a key.
//
// The same contract covers the job API's campaign fingerprint, which is
// what content-addresses checkpoint directories on disk.

// endpointCases pairs each cached endpoint with a fully-populated exemplar
// body exercising every decodable field.
var endpointCases = []struct {
	endpoint string
	fresh    func() runner
	body     string
}{
	{"flow", func() runner { return &FlowRequest{} },
		`{"chip":"dsc","stil":["STIL 1.0;"],"memories":[{"Name":"m0","Words":16,"Bits":2,"Kind":0}],
		  "test_pins":24,"func_pins":128,"max_power":900.5,"partition":"lpt",
		  "algorithm":"March C-","verify":true,"extest":true,"workers":3,"timeout_ms":1500}`},
	{"sched", func() runner { return &SchedRequest{} },
		`{"chip":"dsc","test_pins":[18,22,26],"func_pins":100,"max_power":800,
		  "partition":"firstfit","workers":2,"timeout_ms":99}`},
	{"memfault", func() runner { return &MemfaultRequest{} },
		`{"algorithms":["March C-","MATS+"],"words":64,"bits":4,"two_port":true,
		  "seed":7,"max_undetected":-1,"workers":8,"timeout_ms":123}`},
	{"xcheck", func() runner { return &XCheckRequest{} },
		`{"kind":"wrapper","algorithm":"March C-","words":32,"bits":2,"two_port":false,
		  "n_groups":3,"core":"TV","tam_width":2,"max_faults":100,"seed":9,
		  "max_undetected":4,"max_patterns":8,"workers":2,"timeout_ms":5}`},
}

// keyForBody mirrors the handler path exactly: strict-decode the wire body
// into a fresh request, then key its canonical form.
func keyForBody(t *testing.T, endpoint string, fresh func() runner, body []byte) string {
	t.Helper()
	req := fresh()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		t.Fatalf("%s: decode %s: %v", endpoint, body, err)
	}
	key, err := requestKey(endpoint, canonical(req))
	if err != nil {
		t.Fatalf("%s: requestKey: %v", endpoint, err)
	}
	return key
}

// permuteJSON re-encodes a JSON value with every object's fields in a
// random order and random interstitial whitespace, recursively.  Array
// element order is semantic and preserved.
func permuteJSON(t *testing.T, rng *rand.Rand, raw []byte) []byte {
	t.Helper()
	ws := func() string {
		return []string{"", " ", "\n", "\t"}[rng.Intn(4)]
	}
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return trimmed
	}
	var b strings.Builder
	switch trimmed[0] {
	case '{':
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(trimmed, &fields); err != nil {
			t.Fatalf("permute object %s: %v", trimmed, err)
		}
		keys := make([]string, 0, len(fields))
		for k := range fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		b.WriteString("{")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "%s%q%s:%s%s", ws(), k, ws(), ws(), permuteJSON(t, rng, fields[k]))
		}
		b.WriteString(ws())
		b.WriteString("}")
	case '[':
		var elems []json.RawMessage
		if err := json.Unmarshal(trimmed, &elems); err != nil {
			t.Fatalf("permute array %s: %v", trimmed, err)
		}
		b.WriteString("[")
		for i, e := range elems {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(ws())
			b.Write(permuteJSON(t, rng, e))
		}
		b.WriteString(ws())
		b.WriteString("]")
	default:
		return trimmed
	}
	return []byte(b.String())
}

// TestCanonicalKeyEncodingInvariance: any re-encoding of the same request —
// permuted field order, arbitrary whitespace — lands on the same cache key.
func TestCanonicalKeyEncodingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range endpointCases {
		base := keyForBody(t, tc.endpoint, tc.fresh, []byte(tc.body))
		for trial := 0; trial < 64; trial++ {
			variant := permuteJSON(t, rng, []byte(tc.body))
			if got := keyForBody(t, tc.endpoint, tc.fresh, variant); got != base {
				t.Fatalf("%s: key split by re-encoding:\n%s\n-> %s, want %s", tc.endpoint, variant, got, base)
			}
		}
	}
}

// TestCanonicalKeyTuningInvariance: workers and timeout_ms — absent, zero,
// or any value — never change the key.
func TestCanonicalKeyTuningInvariance(t *testing.T) {
	for _, tc := range endpointCases {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal([]byte(tc.body), &fields); err != nil {
			t.Fatal(err)
		}
		variants := make([][]byte, 0, 4)
		for _, tune := range []string{`0`, `1`, `4096`, ""} {
			f := map[string]json.RawMessage{}
			for k, v := range fields {
				f[k] = v
			}
			if tune == "" {
				delete(f, "workers")
				delete(f, "timeout_ms")
			} else {
				f["workers"] = json.RawMessage(tune)
				f["timeout_ms"] = json.RawMessage(tune)
			}
			blob, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			variants = append(variants, blob)
		}
		base := keyForBody(t, tc.endpoint, tc.fresh, variants[0])
		for _, v := range variants[1:] {
			if got := keyForBody(t, tc.endpoint, tc.fresh, v); got != base {
				t.Fatalf("%s: tuning fields split the key:\n%s\n-> %s, want %s", tc.endpoint, v, got, base)
			}
		}
	}
}

// TestCanonicalKeyEndpointSeparation: the same canonical payload on two
// different endpoints must never collide (the endpoint name is part of the
// hash preimage).
func TestCanonicalKeyEndpointSeparation(t *testing.T) {
	payload := map[string]int{"words": 64, "bits": 4}
	seen := map[string]string{}
	for _, endpoint := range []string{"flow", "sched", "memfault", "xcheck"} {
		key, err := requestKey(endpoint, payload)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[key]; ok {
			t.Fatalf("endpoints %s and %s share key %s", prev, endpoint, key)
		}
		seen[key] = endpoint
	}
}

// randomMemfault draws a MemfaultRequest from small semantic domains.
// Slices are nil or non-empty — never empty-but-allocated, which omitempty
// deliberately identifies with nil.
func randomMemfault(rng *rand.Rand) MemfaultRequest {
	algSets := [][]string{nil, {"March C-"}, {"MATS+"}, {"March C-", "MATS+"}}
	return MemfaultRequest{
		Algorithms:    algSets[rng.Intn(len(algSets))],
		Words:         []int{4, 16, 64, 256}[rng.Intn(4)],
		Bits:          1 + rng.Intn(8),
		TwoPort:       rng.Intn(2) == 1,
		Seed:          int64(rng.Intn(3)),
		MaxUndetected: []int{-1, 0, 5}[rng.Intn(3)],
		Workers:       rng.Intn(16),
		TimeoutMS:     rng.Intn(10000),
	}
}

func randomXCheck(rng *rand.Rand) XCheckRequest {
	return XCheckRequest{
		Kind:          []string{"tpg", "controller", "wrapper"}[rng.Intn(3)],
		Algorithm:     []string{"", "March C-", "MATS+"}[rng.Intn(3)],
		Words:         []int{0, 16, 64}[rng.Intn(3)],
		Bits:          rng.Intn(5),
		TwoPort:       rng.Intn(2) == 1,
		NGroups:       rng.Intn(4),
		Core:          []string{"", "USB", "TV", "JPEG"}[rng.Intn(4)],
		TamWidth:      rng.Intn(3),
		MaxFaults:     []int{0, 100}[rng.Intn(2)],
		Seed:          int64(rng.Intn(3)),
		MaxUndetected: rng.Intn(3),
		MaxPatterns:   rng.Intn(3),
		Workers:       rng.Intn(16),
		TimeoutMS:     rng.Intn(10000),
	}
}

// TestCanonicalKeyCollisionFreedom: over seeded random request populations,
// two requests share a key if and only if their canonical forms are
// identical — distinct semantics never collide, and tuning-only differences
// always coincide.
func TestCanonicalKeyCollisionFreedom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	seenKeys := map[string]string{}
	seenReprs := map[string]string{}
	check := func(endpoint string, canonical interface{}) {
		t.Helper()
		key, err := requestKey(endpoint, canonical)
		if err != nil {
			t.Fatal(err)
		}
		repr := fmt.Sprintf("%#v", canonical)
		if prev, ok := seenKeys[key]; ok {
			if prev != repr {
				t.Fatalf("%s: distinct requests collide on %s:\n%s\n%s", endpoint, key, prev, repr)
			}
		} else {
			seenKeys[key] = repr
		}
		if prevKey, ok := seenReprs[repr]; ok {
			if prevKey != key {
				t.Fatalf("%s: identical canonical form got two keys: %s, %s", endpoint, prevKey, key)
			}
		} else {
			seenReprs[repr] = key
		}
	}
	for i := 0; i < 400; i++ {
		check("memfault", canonical(randomMemfault(rng)))
		check("xcheck", canonical(randomXCheck(rng)))
	}
}

// TestJobFingerprintCanonicalization extends the contract to the job API:
// the campaign fingerprint (which names the on-disk checkpoint) is
// invariant to spec re-encoding and sensitive to every semantic field.
func TestJobFingerprintCanonicalization(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	base := []byte(`{"algorithm":"March C-","config":{"Name":"fp","Words":64,"Bits":4},"all_faults":true}`)
	want := fingerprintOf(t, base)
	for trial := 0; trial < 32; trial++ {
		variant := permuteJSON(t, rng, base)
		if got := fingerprintOf(t, variant); got != want {
			t.Fatalf("fingerprint split by re-encoding %s: %s vs %s", variant, got, want)
		}
	}
	changed := []byte(`{"algorithm":"March C-","config":{"Name":"fp","Words":128,"Bits":4},"all_faults":true}`)
	if fingerprintOf(t, changed) == want {
		t.Fatal("semantically different specs share a fingerprint")
	}
}

func fingerprintOf(t *testing.T, payload []byte) string {
	t.Helper()
	spec, err := campaign.Decode(campaign.KindMemfault, json.RawMessage(payload))
	if err != nil {
		t.Fatalf("decode %s: %v", payload, err)
	}
	fp, err := campaign.Fingerprint(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}
