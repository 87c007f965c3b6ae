package pos

import (
	"encoding/binary"
	"sync/atomic"
)

// Reader is a grace counter for one consumer of the store. The paper's
// Cleaner may only reclaim an outdated record once every eactor connected
// to the POS has executed at least once since the update that outdated it
// (Section 4.1); readers publish that progress by calling Tick.
type Reader struct {
	store *Store
	seen  atomic.Uint64
}

// Tick publishes that the reader has observed the current store epoch;
// eactor bodies call it once per invocation.
func (r *Reader) Tick() {
	r.seen.Store(r.store.epoch.Load())
}

// RegisterReader adds a grace counter that constrains the Cleaner.
func (s *Store) RegisterReader() *Reader {
	r := &Reader{store: s}
	s.readersMu.Lock()
	s.readers = append(s.readers, r)
	s.readersMu.Unlock()
	return r
}

// graceEpoch returns the highest epoch all readers have passed. With no
// readers registered every outdated record is immediately reclaimable.
func (s *Store) graceEpoch() uint64 {
	s.readersMu.Lock()
	defer s.readersMu.Unlock()
	if len(s.readers) == 0 {
		return s.epoch.Load()
	}
	min := s.readers[0].seen.Load()
	for _, r := range s.readers[1:] {
		if seen := r.seen.Load(); seen < min {
			min = seen
		}
	}
	return min
}

// Clean performs one housekeeping pass over all buckets, unlinking and
// reclaiming records that are outdated or tombstoned and whose epoch has
// been passed by every registered reader. It returns the number of
// regions reclaimed.
func (s *Store) Clean() (int, error) {
	if !s.enter() {
		return 0, ErrClosed
	}
	defer s.memMu.RUnlock()
	grace := s.graceEpoch()
	mem := s.mem
	reclaimed := 0
	for b := 0; b < s.buckets; b++ {
		s.bucketMu[b].Lock()
		headOff := offBucketHeads + 8*b
		prev := uint64(0)
		off := binary.LittleEndian.Uint64(mem[headOff:])
		for step := 0; s.chainLink(off, step); step++ {
			rec := mem[off : off+uint64(s.regionSize)]
			next := binary.LittleEndian.Uint64(rec[recNext:])
			flags := binary.LittleEndian.Uint32(rec[recFlags:])
			epoch := binary.LittleEndian.Uint64(rec[recEpoch:])
			if flags&(flagOutdated|flagDeleted) != 0 && epoch <= grace {
				if prev == 0 {
					binary.LittleEndian.PutUint64(mem[headOff:], next)
				} else {
					binary.LittleEndian.PutUint64(mem[prev+recNext:], next)
				}
				s.freeRegion(off)
				reclaimed++
			} else {
				prev = off
			}
			off = next
		}
		s.bucketMu[b].Unlock()
	}
	s.cleaned.Add(uint64(reclaimed))
	return reclaimed, nil
}
