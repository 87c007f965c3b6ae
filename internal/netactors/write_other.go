//go:build !unix

package netactors

// writeFD refuses every inline write off unix: each frame takes the pump.
func writeFD(uintptr, []byte) int { return 0 }
