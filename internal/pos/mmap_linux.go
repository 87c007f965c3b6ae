//go:build linux

package pos

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile memory-maps path at the requested size, creating and extending
// the file as needed. The paper backs the POS with a memory-mapped file
// served by the kernel page cache so stores avoid system calls except
// for explicit syncs (Section 4.1).
func mapFile(path string, size int) (mem []byte, closer func() error, syncer func() error, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("pos: open %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("pos: stat %s: %w", path, err)
	}
	if info.Size() < int64(size) {
		if err := f.Truncate(int64(size)); err != nil {
			f.Close()
			return nil, nil, nil, fmt.Errorf("pos: truncate %s: %w", path, err)
		}
	}
	mem, err = syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("pos: mmap %s: %w", path, err)
	}
	closer = func() error {
		unmapErr := syscall.Munmap(mem)
		closeErr := f.Close()
		if unmapErr != nil {
			return unmapErr
		}
		return closeErr
	}
	syncer = func() error {
		_, _, errno := syscall.Syscall(syscall.SYS_MSYNC,
			uintptr(addrOf(mem)), uintptr(len(mem)), uintptr(syscall.MS_SYNC))
		if errno != 0 {
			return errno
		}
		return nil
	}
	return mem, closer, syncer, nil
}

// mapAnon maps size bytes of private anonymous memory for a volatile
// store: zero pages the kernel supplies on first touch, outside the
// collected heap, so an unused region costs no resident memory and the
// store does not raise the GC goal.
func mapAnon(size int) (mem []byte, closer func() error, err error) {
	mem, err = syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, nil, fmt.Errorf("pos: mmap %d anonymous bytes: %w", size, err)
	}
	return mem, func() error { return syscall.Munmap(mem) }, nil
}
