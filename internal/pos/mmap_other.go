//go:build !linux

package pos

import (
	"fmt"
	"os"
)

// mapFile on platforms without usable mmap falls back to a heap buffer
// loaded from and flushed to the file; Sync and Close write it back.
func mapFile(path string, size int) (mem []byte, closer func() error, syncer func() error, err error) {
	mem = make([]byte, size)
	if existing, readErr := os.ReadFile(path); readErr == nil {
		copy(mem, existing)
	} else if !os.IsNotExist(readErr) {
		return nil, nil, nil, fmt.Errorf("pos: read %s: %w", path, readErr)
	}
	flush := func() error {
		return os.WriteFile(path, mem, 0o644)
	}
	return mem, flush, flush, nil
}

// mapAnon backs a volatile store with a heap buffer.
func mapAnon(size int) (mem []byte, closer func() error, err error) {
	return make([]byte, size), func() error { return nil }, nil
}
