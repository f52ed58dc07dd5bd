package pattern

import (
	"slices"
	"testing"
)

// busWidths are the widths FuzzBusPacking picks from: empty, one pin, both
// sides of a word boundary and a multi-word bus.
var busWidths = []int{0, 1, 63, 64, 65, 300}

// FuzzBusPacking drives a packed bus and a one-Bit-per-pin reference
// through the same sequence of pin writes, slot-field copies and all-X
// resets, then checks every pin read and the mismatch set a random
// observed vector produces, in order.  The bus under test is TamExpect of
// a cycle whose other three buses must stay all-X (they share its backing
// array).
//
// Each op is four bytes: kind, then three operands.
func FuzzBusPacking(f *testing.F) {
	for w := range busWidths {
		f.Add(uint8(w), []byte{0, 0, 3, 1, 1, 0, 9, 0, 2, 5, 40, 7, 0, 1, 2, 2}, uint64(w))
	}
	f.Add(uint8(5), []byte{2, 10, 200, 63, 0, 1, 44, 1, 3, 0, 0, 0, 2, 255, 255, 17}, uint64(99))
	f.Fuzz(func(t *testing.T, w uint8, ops []byte, obsSeed uint64) {
		n := busWidths[int(w)%len(busWidths)]
		cyc := newCycle(n, n, 0)
		bus := &cyc.TamExpect
		ref := make([]Bit, n)
		for i := range ref {
			ref[i] = BX
		}
		for ; len(ops) >= 4; ops = ops[4:] {
			kind, a, b, c := ops[0]%4, int(ops[1]), int(ops[2]), int(ops[3])
			switch {
			case kind == 3:
				cyc.reset()
				for i := range ref {
					ref[i] = BX
				}
			case n == 0:
			case kind == 2:
				lo := (a<<8 | b) % n
				k := c % (n - lo + 1)
				srcLo := (a + c) % 64
				src := prandWords(uint64(a*131+b*7+c), srcLo+k+1)
				bus.SetField(lo, src, srcLo, k)
				for i := 0; i < k; i++ {
					ref[lo+i] = FromBool(src[(srcLo+i)/64]>>((srcLo+i)%64)&1 == 1)
				}
			default:
				pin, v := (a<<8|b)%n, Bit(c%3)
				bus.Set(pin, v)
				ref[pin] = v
			}
		}
		for i, want := range ref {
			if got := bus.Get(i); got != want {
				t.Fatalf("width %d pin %d: Get %v, want %v", n, i, got, want)
			}
			if got := bus.Level(i); got != want.Bool() {
				t.Fatalf("width %d pin %d: Level %v, want %v", n, i, got, want.Bool())
			}
		}
		for _, other := range []*Bus{&cyc.TamIn, &cyc.Func, &cyc.FuncExpect} {
			for i := 0; i < other.Len(); i++ {
				if other.Get(i) != BX {
					t.Fatalf("width %d: a write to TamExpect reached another bus at pin %d", n, i)
				}
			}
		}
		// Observed words are unmasked: bits past the bus must never
		// compare.
		got := make([]uint64, Words(n))
		for k := range got {
			got[k] = splitmix64(obsSeed + uint64(k))
		}
		var want, seen []int
		for i, exp := range ref {
			if exp != BX && exp.Bool() != (got[i/64]>>(i%64)&1 == 1) {
				want = append(want, i)
			}
		}
		bus.Mismatches(got, func(pin int) { seen = append(seen, pin) })
		if !slices.Equal(seen, want) {
			t.Fatalf("width %d: mismatches %v, want %v", n, seen, want)
		}
	})
}

// CopyBits moves a field between arbitrary bit offsets and leaves the
// destination's other bits alone.
func TestCopyBits(t *testing.T) {
	src := prandWords(7, 256)
	for _, tc := range []struct{ dstLo, srcLo, n int }{
		{0, 0, 0}, {0, 0, 64}, {3, 0, 61}, {5, 9, 64}, {63, 1, 2}, {60, 130, 100}, {1, 0, 190},
	} {
		dst := []uint64{^uint64(0), 0, ^uint64(0), 0xF0F0F0F0F0F0F0F0}
		before := slices.Clone(dst)
		CopyBits(dst, tc.dstLo, src, tc.srcLo, tc.n)
		for i := 0; i < 64*len(dst); i++ {
			want := before[i/64]>>(i%64)&1 == 1
			if j := i - tc.dstLo; j >= 0 && j < tc.n {
				want = src[(tc.srcLo+j)/64]>>((tc.srcLo+j)%64)&1 == 1
			}
			if got := dst[i/64]>>(i%64)&1 == 1; got != want {
				t.Fatalf("%+v: bit %d = %v, want %v", tc, i, got, want)
			}
		}
	}
}
