//go:build !race

package allocs

// Race reports whether the binary was built with -race.
const Race = false
