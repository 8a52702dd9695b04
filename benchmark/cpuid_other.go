//go:build !amd64

package main

// cpuInfo is unavailable off amd64: the record then names no model or
// cache sizes.
func cpuInfo() (model string, l2, l3 int64) { return "unknown", 0, 0 }
