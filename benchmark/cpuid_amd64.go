package main

import "strings"

// cpuid executes the CPUID instruction for leaf eax, subleaf ecx.
func cpuid(eax, ecx uint32) (a, b, c, d uint32)

// cpuInfo returns the processor brand string and the L2 and L3 cache sizes
// in bytes (0 when the processor does not report them).
func cpuInfo() (model string, l2, l3 int64) {
	if maxExt, _, _, _ := cpuid(0x80000000, 0); maxExt >= 0x80000004 {
		var brand []byte
		for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
			a, b, c, d := cpuid(leaf, 0)
			for _, r := range []uint32{a, b, c, d} {
				brand = append(brand, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
			}
		}
		model = strings.TrimSpace(strings.TrimRight(string(brand), "\x00"))
	}
	// Deterministic cache parameters: leaf 4 (Intel) or 0x8000001D (AMD),
	// one subleaf per cache until type 0.
	leaf := uint32(4)
	if _, b, c, d := cpuid(0, 0); b == 0x68747541 && c == 0x444d4163 && d == 0x69746e65 { // "AuthenticAMD"
		leaf = 0x8000001D
	}
	for sub := uint32(0); sub < 16; sub++ {
		a, b, c, _ := cpuid(leaf, sub)
		if a&0x1f == 0 {
			break
		}
		ways := int64(b>>22) + 1
		partitions := int64((b>>12)&0x3ff) + 1
		line := int64(b&0xfff) + 1
		sets := int64(c) + 1
		size := ways * partitions * line * sets
		switch (a >> 5) & 7 {
		case 2:
			l2 = size
		case 3:
			l3 = size
		}
	}
	return model, l2, l3
}
