//go:build unix

package netactors

import "syscall"

// writeFD makes one write(2) of p to fd and returns the bytes the kernel
// took: 0 when it refuses them or fails. Go sockets are O_NONBLOCK, so a
// full send buffer (EAGAIN) never blocks the WRITER's worker.
func writeFD(fd uintptr, p []byte) int {
	n, err := syscall.Write(int(fd), p)
	for err == syscall.EINTR {
		n, err = syscall.Write(int(fd), p)
	}
	return max(n, 0)
}
