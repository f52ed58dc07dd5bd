package pattern

import "math/bits"

// Packed pin vectors.  Every chip-level bus travels from Program.Stream to
// the tester's compare as 64 pins per uint64 word: pin i is bit i%64 of
// word i/64.  Functional patterns (FuncPattern) and the functional core
// machine (CoreModel.FuncStep) use the same packing, so a functional lane's
// slot window moves as a bit-field copy.

// Words returns the number of 64-pin words that hold n pins.
func Words(n int) int { return (n + 63) / 64 }

// Bus is a three-valued pin vector packed into two bit-planes: Care marks
// the pins that carry a value and Val holds their levels.  X (don't care,
// don't compare) is care=0, val=0, so the level of an X pin reads as 0 —
// the same as Bit.Bool.
type Bus struct {
	Val, Care []uint64
	n         int
}

// Len returns the bus width in pins.
func (b *Bus) Len() int { return b.n }

// Get returns pin i as a three-valued bit.
func (b *Bus) Get(i int) Bit {
	w, m := i/64, uint64(1)<<(i%64)
	switch {
	case b.Care[w]&m == 0:
		return BX
	case b.Val[w]&m != 0:
		return B1
	}
	return B0
}

// Level returns pin i's logic level (X reads as 0).
func (b *Bus) Level(i int) bool { return b.Val[i/64]>>(i%64)&1 == 1 }

// Set drives pin i to v.
func (b *Bus) Set(i int, v Bit) {
	w, m := i/64, uint64(1)<<(i%64)
	switch v {
	case BX:
		b.Care[w] &^= m
		b.Val[w] &^= m
	case B1:
		b.Care[w] |= m
		b.Val[w] |= m
	default:
		b.Care[w] |= m
		b.Val[w] &^= m
	}
}

// SetField drives the n pins from lo with n bits of src starting at bit
// srcLo (a bit-field copy; every copied pin becomes a cared-for 0 or 1).
func (b *Bus) SetField(lo int, src []uint64, srcLo, n int) {
	CopyBits(b.Val, lo, src, srcLo, n)
	fillOnes(b.Care, lo, n)
}

// Mismatches calls fn, in ascending pin order, for every pin whose
// expectation the observed words got violate: (got ^ Val) & Care.
func (b *Bus) Mismatches(got []uint64, fn func(pin int)) {
	for w, want := range b.Val {
		for d := (got[w] ^ want) & b.Care[w]; d != 0; d &= d - 1 {
			fn(w*64 + bits.TrailingZeros64(d))
		}
	}
}

// CopyBits copies n bits of src starting at bit srcLo into dst starting at
// bit dstLo; the other bits of dst are left as they are.
func CopyBits(dst []uint64, dstLo int, src []uint64, srcLo, n int) {
	for n > 0 {
		w, o := dstLo/64, dstLo%64
		k := min(n, 64-o)
		m := ^uint64(0) >> (64 - k) << o
		dst[w] = dst[w]&^m | readBits(src, srcLo)<<o&m
		dstLo, srcLo, n = dstLo+k, srcLo+k, n-k
	}
}

// readBits returns up to 64 bits of src from bit lo (bits past the end of
// src read as 0).
func readBits(src []uint64, lo int) uint64 {
	w, o := lo/64, lo%64
	v := src[w] >> o
	if o != 0 && w+1 < len(src) {
		v |= src[w+1] << (64 - o)
	}
	return v
}

// fillOnes sets bits [lo, lo+n) of dst.
func fillOnes(dst []uint64, lo, n int) {
	for n > 0 {
		w, o := lo/64, lo%64
		k := min(n, 64-o)
		dst[w] |= ^uint64(0) >> (64 - k) << o
		lo, n = lo+k, n-k
	}
}

// packBools packs a bool vector LSB first.
func packBools(v []bool) []uint64 {
	out := make([]uint64, Words(len(v)))
	for i, b := range v {
		if b {
			out[i/64] |= 1 << (i % 64)
		}
	}
	return out
}

// unpackBits expands the first n bits of words into a bool vector.
func unpackBits(words []uint64, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = words[i/64]>>(i%64)&1 == 1
	}
	return out
}
