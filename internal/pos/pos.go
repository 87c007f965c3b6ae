// Package pos implements the EActors Persistent Object Store (Section 4
// of the paper): a lean key-value store over a memory-mapped file,
// organised as a configurable number of bucket stacks. Writes push new
// versions on top of the bucket stack; reads scan top-down and therefore
// always observe the newest version first, making the store linearisable
// without read locks in the paper's design (Figure 5). Outdated versions
// accumulate and are reclaimed by a Cleaner once every registered reader
// has passed the superseding update (grace counters).
//
// Differences from the paper, by necessity of the Go environment: the
// store uses file-relative offsets instead of pointers (Go cannot map at
// a fixed virtual address), and bucket-striped in-process locks instead
// of Hardware Lock Elision. Persistence semantics (page-cache-backed
// mmap, explicit Sync) are the same.
package pos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/eactors/eactors-go/internal/ecrypto"
	"github.com/eactors/eactors-go/internal/faults"
)

// Store geometry and layout constants.
const (
	magic         = 0xEAC7_0B5E_EAC7_0B5E
	version       = 2
	headerPages   = 2 // superblock + sealed-key slot
	pageSize      = 4096
	minRegionSize = 64

	// Superblock field offsets.
	offMagic       = 0
	offVersion     = 8
	offSize        = 12
	offBuckets     = 20
	offRegionSize  = 24
	offRegionCount = 28
	offFreeHead    = 32
	offFresh       = 40 // the fresh mark: offset of the first region never allocated
	offBucketHeads = 48 // bucket head table starts here, 8 bytes each

	// Sealed-key slot (second page).
	offSealedLen  = pageSize
	offSealedBlob = pageSize + 4

	// maxBuckets is the bucket count whose head table fills the
	// superblock page; new stores default to it.
	maxBuckets = (offSealedLen - offBucketHeads) / 8

	// Record header layout within a region.
	recNext   = 0  // u64 offset of next record in bucket chain (0 = nil)
	recFlags  = 8  // u32
	recEpoch  = 12 // u64 global epoch at Set time
	recKeyLen = 20 // u32
	recValLen = 24 // u32
	recData   = 32 // key bytes then value bytes

	flagOutdated = 1 << 0 // superseded by a newer version
	flagDeleted  = 1 << 1 // tombstoned by Delete
)

// Store errors.
var (
	ErrFull        = errors.New("pos: store full (no free regions)")
	ErrTooLarge    = errors.New("pos: key+value exceeds region size")
	ErrBadStore    = errors.New("pos: invalid or incompatible store file")
	ErrClosed      = errors.New("pos: store closed")
	ErrNoSealedKey = errors.New("pos: no sealed key stored")

	// ErrInjectedSync reports a Sync failed by the fault injector (see
	// AttachFaults); the store contents are untouched, exactly like a
	// transient msync error.
	ErrInjectedSync = errors.New("pos: injected sync failure")
)

// Options configures Open.
type Options struct {
	// Path is the backing file. Empty means a volatile in-memory store.
	Path string
	// SizeBytes is the total store size; rounded up to whole pages.
	SizeBytes int
	// Buckets is the number of bucket stacks. Zero means the stored
	// count on reopen and, for a new store, as many as fill the
	// superblock page (506): short chains cost nothing extra.
	Buckets int
	// RegionSize is the fixed record region size in bytes (default 256).
	// One key-value pair must fit in RegionSize-recData bytes.
	RegionSize int
	// EncryptionKey, when non-nil, enables encrypted mode: keys are
	// deterministically encrypted (so lookup compares ciphertexts) and
	// each pair is stored as one combined sealed value (Section 4.1).
	EncryptionKey *[ecrypto.KeySize]byte
}

// Store is a persistent object store. All methods are safe for
// concurrent use.
type Store struct {
	mem    []byte
	closer func() error
	syncer func() error

	buckets     int
	regionSize  int
	regionCount int
	regionsOff  int
	regionsEnd  uint64 // regionsOff + regionCount*regionSize

	// freeMu guards the free list and the fresh mark. free counts the
	// free list and fresh mirrors the superblock's mark, so occupancy
	// is read without touching a region.
	freeMu    sync.Mutex
	free      int
	fresh     uint64
	bucketMu  []sync.Mutex
	epoch     atomic.Uint64
	readersMu sync.Mutex
	readers   []*Reader

	det  *ecrypto.Deterministic // nil in plaintext mode
	pair *ecrypto.Cipher
	// plain holds *[]byte scratch of regionSize bytes, in which Set lays
	// out a pair's keyLen‖key‖value before sealing it into the region,
	// and lookups seal the key they search for.
	plain sync.Pool

	// closed is set first by Close; memMu is then taken for writing,
	// which waits out every operation already past its closed check
	// (they hold it for reading, see enter) before the mapping goes.
	closed atomic.Bool
	memMu  sync.RWMutex

	sets    atomic.Uint64
	gets    atomic.Uint64
	cleaned atomic.Uint64

	// tel is nil until AttachTelemetry (see telemetry.go).
	tel atomic.Pointer[storeTelemetry]

	// flt is nil until AttachFaults; Sync consults it for injected
	// failures and delays.
	flt atomic.Pointer[faults.Injector]
}

// AttachFaults arms the store with a deterministic fault injector: each
// Sync consults the SitePosSync schedule and fails with ErrInjectedSync
// or stalls when the schedule says so. Nil-safe and O(1) when off.
func (s *Store) AttachFaults(inj *faults.Injector) {
	s.flt.Store(inj)
}

func addrOf(b []byte) uintptr {
	if len(b) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(&b[0]))
}

// Open creates or re-opens a store.
func Open(opts Options) (*Store, error) {
	if opts.SizeBytes < headerPages*pageSize+minRegionSize {
		return nil, fmt.Errorf("pos: size %d too small", opts.SizeBytes)
	}
	if opts.Buckets < 0 {
		return nil, fmt.Errorf("pos: bucket count %d", opts.Buckets)
	}
	if opts.RegionSize == 0 {
		opts.RegionSize = 256
	}
	if opts.RegionSize < minRegionSize {
		return nil, fmt.Errorf("pos: region size %d below minimum %d", opts.RegionSize, minRegionSize)
	}
	size := (opts.SizeBytes + pageSize - 1) / pageSize * pageSize

	var (
		mem    []byte
		closer func() error
		syncer = func() error { return nil }
		err    error
	)
	if opts.Path != "" {
		mem, closer, syncer, err = mapFile(opts.Path, size)
	} else {
		mem, closer, err = mapAnon(size)
	}
	if err != nil {
		return nil, err
	}

	s := &Store{mem: mem, closer: closer, syncer: syncer}
	if opts.EncryptionKey != nil {
		det, err := ecrypto.NewDeterministic(*opts.EncryptionKey)
		if err != nil {
			_ = closer()
			return nil, err
		}
		pair, err := ecrypto.NewCipher(ecrypto.DeriveKey(*opts.EncryptionKey, "pos-pair"), 2)
		if err != nil {
			_ = closer()
			return nil, err
		}
		s.det = det
		s.pair = pair
		s.plain.New = func() any {
			b := make([]byte, s.regionSize)
			return &b
		}
	}

	if binary.LittleEndian.Uint64(mem[offMagic:]) == magic {
		if err := s.loadSuperblock(opts); err != nil {
			_ = closer()
			return nil, err
		}
	} else {
		if err := s.formatSuperblock(opts, size); err != nil {
			_ = closer()
			return nil, err
		}
	}
	s.bucketMu = make([]sync.Mutex, s.buckets)
	return s, nil
}

// formatSuperblock writes a new superblock. It touches no region: the
// free list starts empty and the fresh mark at the first region, so a
// region's pages are first written when allocRegion hands it out.
func (s *Store) formatSuperblock(opts Options, size int) error {
	buckets := opts.Buckets
	if buckets == 0 {
		buckets = maxBuckets
	}
	if buckets > maxBuckets {
		return fmt.Errorf("pos: %d buckets do not fit the superblock page", buckets)
	}
	regionsOff := headerPages * pageSize
	regionCount := (size - regionsOff) / opts.RegionSize
	if regionCount < 1 {
		return fmt.Errorf("pos: size %d leaves no room for regions", size)
	}

	mem := s.mem
	binary.LittleEndian.PutUint64(mem[offMagic:], magic)
	binary.LittleEndian.PutUint32(mem[offVersion:], version)
	binary.LittleEndian.PutUint64(mem[offSize:], uint64(size))
	binary.LittleEndian.PutUint32(mem[offBuckets:], uint32(buckets))
	binary.LittleEndian.PutUint32(mem[offRegionSize:], uint32(opts.RegionSize))
	binary.LittleEndian.PutUint32(mem[offRegionCount:], uint32(regionCount))
	binary.LittleEndian.PutUint64(mem[offFreeHead:], 0)
	binary.LittleEndian.PutUint64(mem[offFresh:], uint64(regionsOff))
	clear(mem[offBucketHeads : offBucketHeads+8*buckets])

	s.buckets = buckets
	s.regionSize = opts.RegionSize
	s.regionCount = regionCount
	s.regionsOff = regionsOff
	s.regionsEnd = uint64(regionsOff) + uint64(regionCount)*uint64(opts.RegionSize)
	s.fresh = uint64(regionsOff)
	return nil
}

// loadSuperblock validates an existing superblock and counts the free
// list once. The fresh mark and every free-list link are checked like
// chain links: a corrupt one rejects the store instead of handing out a
// region outside the grid.
func (s *Store) loadSuperblock(opts Options) error {
	mem := s.mem
	if binary.LittleEndian.Uint32(mem[offVersion:]) != version {
		return fmt.Errorf("%w: version mismatch", ErrBadStore)
	}
	storedSize := binary.LittleEndian.Uint64(mem[offSize:])
	if storedSize != uint64(len(mem)) {
		return fmt.Errorf("%w: stored size %d vs mapped %d", ErrBadStore, storedSize, len(mem))
	}
	s.buckets = int(binary.LittleEndian.Uint32(mem[offBuckets:]))
	s.regionSize = int(binary.LittleEndian.Uint32(mem[offRegionSize:]))
	s.regionCount = int(binary.LittleEndian.Uint32(mem[offRegionCount:]))
	s.regionsOff = headerPages * pageSize
	s.regionsEnd = uint64(s.regionsOff) + uint64(s.regionCount)*uint64(s.regionSize)
	if s.buckets < 1 || s.buckets > maxBuckets || s.regionSize < minRegionSize ||
		s.regionCount < 1 || s.regionsEnd > uint64(len(mem)) {
		return fmt.Errorf("%w: corrupt geometry", ErrBadStore)
	}
	if opts.Buckets != 0 && opts.Buckets != s.buckets {
		return fmt.Errorf("%w: bucket count %d differs from stored %d", ErrBadStore, opts.Buckets, s.buckets)
	}
	s.fresh = binary.LittleEndian.Uint64(mem[offFresh:])
	if s.fresh != s.regionsEnd && !s.validRecordOff(s.fresh) {
		return fmt.Errorf("%w: fresh mark %d off the region grid", ErrBadStore, s.fresh)
	}
	// Only allocated regions are ever freed, so the list holds at most
	// the regions below the mark; a longer walk is a cycle.
	used := int((s.fresh - uint64(s.regionsOff)) / uint64(s.regionSize))
	for off := binary.LittleEndian.Uint64(mem[offFreeHead:]); off != 0; off = binary.LittleEndian.Uint64(mem[off:]) {
		if !s.validRecordOff(off) || off >= s.fresh || s.free == used {
			return fmt.Errorf("%w: corrupt free list", ErrBadStore)
		}
		s.free++
	}
	return nil
}

// storedPairSize returns the region bytes a pair occupies once stored —
// without paying for the encryption itself. Mirrors Set: in encrypted
// mode the key is sealed deterministically and the value stored as the
// sealed (keyLen32 || key || value) combination.
func (s *Store) storedPairSize(keyLen, valLen int) int {
	if s.det == nil {
		return recData + keyLen + valLen
	}
	return recData + (keyLen + ecrypto.Overhead) + (4 + keyLen + valLen + ecrypto.Overhead)
}

// checkPairSize rejects a pair that does not fit one region, so the
// write-back layer can fail a Set before it is cached.
func (s *Store) checkPairSize(keyLen, valLen int) error {
	if need := s.storedPairSize(keyLen, valLen); need > s.regionSize {
		return fmt.Errorf("%w: %d bytes into %d-byte region", ErrTooLarge, need, s.regionSize)
	}
	return nil
}

func (s *Store) bucketOf(key []byte) int {
	return int(fnv1a(key) % uint32(s.buckets))
}

// fnv1a is 32-bit FNV-1a, inline so hashing a key allocates nothing. It
// places stored keys in buckets and routes keys to shards (ShardOf).
func fnv1a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// allocRegion pops a region off the free list, else takes the region at
// the fresh mark and advances the mark; 0 when the store is full.
func (s *Store) allocRegion() uint64 {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	if head := binary.LittleEndian.Uint64(s.mem[offFreeHead:]); head != 0 {
		binary.LittleEndian.PutUint64(s.mem[offFreeHead:], binary.LittleEndian.Uint64(s.mem[head:]))
		s.free--
		return head
	}
	if s.fresh == s.regionsEnd {
		return 0
	}
	off := s.fresh
	s.fresh += uint64(s.regionSize)
	binary.LittleEndian.PutUint64(s.mem[offFresh:], s.fresh)
	return off
}

func (s *Store) freeRegion(off uint64) {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	head := binary.LittleEndian.Uint64(s.mem[offFreeHead:])
	binary.LittleEndian.PutUint64(s.mem[off:], head)
	binary.LittleEndian.PutUint64(s.mem[offFreeHead:], off)
	s.free++
}

// FreeRegions returns the regions Set can still take: the free list
// plus the never-used regions past the fresh mark. O(1); it reads no
// region.
func (s *Store) FreeRegions() int {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	return s.free + int((s.regionsEnd-s.fresh)/uint64(s.regionSize))
}

// decodeValue recovers the plaintext value from a stored pair, verifying
// the embedded key in encrypted mode.
func (s *Store) decodeValue(storedKey, storedValue, wantKey []byte) ([]byte, error) {
	if s.det == nil {
		out := make([]byte, len(storedValue))
		copy(out, storedValue)
		return out, nil
	}
	combined, err := s.pair.Open(nil, storedValue, storedKey)
	if err != nil {
		return nil, err
	}
	if len(combined) < 4 {
		return nil, ErrBadStore
	}
	keyLen := int(binary.LittleEndian.Uint32(combined))
	if keyLen < 0 || 4+keyLen > len(combined) {
		return nil, ErrBadStore
	}
	if string(combined[4:4+keyLen]) != string(wantKey) {
		return nil, fmt.Errorf("%w: embedded key mismatch", ErrBadStore)
	}
	return combined[4+keyLen:], nil
}

// lookupKey returns the byte string used for hashing and comparison. In
// encrypted mode it is sealed into pooled scratch, returned as buf for
// the caller to hand back to s.plain once done with the key; buf is nil
// in plaintext mode.
func (s *Store) lookupKey(key []byte) (storedKey []byte, buf *[]byte) {
	if s.det == nil {
		return key, nil
	}
	buf = s.plain.Get().(*[]byte)
	return s.det.AppendSeal((*buf)[:0], key), buf
}

// Set stores a new version of key. Older versions stay in the bucket
// (marked outdated) until the Cleaner reclaims them. The pair is encoded
// straight into its region, so Set allocates nothing.
func (s *Store) Set(key, value []byte) error {
	if !s.enter() {
		return ErrClosed
	}
	defer s.memMu.RUnlock()
	defer s.observeSet(s.opStart())
	if err := s.checkPairSize(len(key), len(value)); err != nil {
		return err
	}
	region := s.allocRegion()
	if region == 0 {
		return ErrFull
	}
	epoch := s.epoch.Add(1)

	mem := s.mem
	end := region + uint64(s.regionSize)
	rec := mem[region:end:end] // appends must not run into the next region
	var storedKey []byte
	valLen := 0
	if s.det == nil {
		storedKey = append(rec[recData:recData], key...)
		valLen = copy(rec[recData+len(key):], value)
	} else {
		storedKey = s.det.AppendSeal(rec[recData:recData], key)
		// s.mem is the untrusted side: nothing unsealed may be written
		// into it, not even between a copy and the seal over it. The
		// combination is laid out in pooled scratch and sealed from there
		// into its slot.
		buf := s.plain.Get().(*[]byte)
		plain := *buf
		binary.LittleEndian.PutUint32(plain, uint32(len(key)))
		n := 4 + copy(plain[4:], key)
		n += copy(plain[n:], value)
		slot := recData + len(storedKey)
		valLen = len(s.pair.Seal(rec[slot:slot], plain[:n], storedKey))
		s.plain.Put(buf)
	}
	binary.LittleEndian.PutUint32(rec[recFlags:], 0)
	binary.LittleEndian.PutUint64(rec[recEpoch:], epoch)
	binary.LittleEndian.PutUint32(rec[recKeyLen:], uint32(len(storedKey)))
	binary.LittleEndian.PutUint32(rec[recValLen:], uint32(valLen))

	b := s.bucketOf(storedKey)
	s.bucketMu[b].Lock()
	headOff := offBucketHeads + 8*b
	head := binary.LittleEndian.Uint64(mem[headOff:])
	binary.LittleEndian.PutUint64(rec[recNext:], head)
	binary.LittleEndian.PutUint64(mem[headOff:], region)
	// Mark older versions outdated right away (Section 4.1: "the marking
	// of outdated values is performed immediately after updates").
	for off, step := head, 0; s.chainLink(off, step); step++ {
		r := mem[off : off+uint64(s.regionSize)]
		if s.recordKeyEquals(r, storedKey) {
			flags := binary.LittleEndian.Uint32(r[recFlags:])
			if flags&(flagOutdated|flagDeleted) == 0 {
				binary.LittleEndian.PutUint32(r[recFlags:], flags|flagOutdated)
			}
		}
		off = binary.LittleEndian.Uint64(r[recNext:])
	}
	s.bucketMu[b].Unlock()
	s.sets.Add(1)
	return nil
}

func (s *Store) recordKeyEquals(rec, key []byte) bool {
	keyLen, _, ok := s.recordSpans(rec)
	if !ok || keyLen != len(key) {
		return false
	}
	return string(rec[recData:recData+keyLen]) == string(key)
}

// validRecordOff reports whether off points at a record region inside
// the store, aligned to the region grid. Chain walks check every link
// before dereferencing it: the mmap is the trust boundary, and a
// corrupted next pointer must end the chain, not crash the process.
func (s *Store) validRecordOff(off uint64) bool {
	if off < uint64(s.regionsOff) || off >= s.regionsEnd {
		return false
	}
	return (off-uint64(s.regionsOff))%uint64(s.regionSize) == 0
}

// chainLink reports whether a chain walk may follow off as its link
// number step (from 0): off is on the region grid, and the walk has not
// yet visited as many records as the store has regions, so a cycle left
// by a corrupted next pointer ends the walk instead of hanging it.
func (s *Store) chainLink(off uint64, step int) bool {
	return off != 0 && step < s.regionCount && s.validRecordOff(off)
}

// recordSpans reads a record's key/value lengths and checks they fit
// inside the region; corrupted length fields return ok=false.
func (s *Store) recordSpans(rec []byte) (keyLen, valLen int, ok bool) {
	keyLen = int(binary.LittleEndian.Uint32(rec[recKeyLen:]))
	valLen = int(binary.LittleEndian.Uint32(rec[recValLen:]))
	if keyLen < 0 || valLen < 0 || keyLen > len(rec) || valLen > len(rec) ||
		recData+keyLen+valLen > len(rec) {
		return 0, 0, false
	}
	return keyLen, valLen, true
}

// Get returns the newest value stored for key.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	if !s.enter() {
		return nil, false, ErrClosed
	}
	defer s.memMu.RUnlock()
	defer s.observeGet(s.opStart())
	s.gets.Add(1)
	storedKey, buf := s.lookupKey(key)
	if buf != nil {
		defer s.plain.Put(buf)
	}
	b := s.bucketOf(storedKey)
	mem := s.mem
	s.bucketMu[b].Lock()
	defer s.bucketMu[b].Unlock()
	for off, step := binary.LittleEndian.Uint64(mem[offBucketHeads+8*b:]), 0; s.chainLink(off, step); step++ {
		rec := mem[off : off+uint64(s.regionSize)]
		if s.recordKeyEquals(rec, storedKey) {
			flags := binary.LittleEndian.Uint32(rec[recFlags:])
			if flags&flagDeleted != 0 {
				// Newest version is a tombstone: key absent.
				return nil, false, nil
			}
			keyLen, valLen, ok := s.recordSpans(rec)
			if !ok {
				return nil, false, ErrBadStore
			}
			stored := rec[recData+keyLen : recData+keyLen+valLen]
			val, err := s.decodeValue(storedKey, stored, key)
			if err != nil {
				return nil, false, err
			}
			return val, true, nil
		}
		off = binary.LittleEndian.Uint64(rec[recNext:])
	}
	return nil, false, nil
}

// Delete tombstones key. It reports whether a live version existed.
func (s *Store) Delete(key []byte) (bool, error) {
	if !s.enter() {
		return false, ErrClosed
	}
	defer s.memMu.RUnlock()
	storedKey, buf := s.lookupKey(key)
	if buf != nil {
		defer s.plain.Put(buf)
	}
	b := s.bucketOf(storedKey)
	mem := s.mem
	s.bucketMu[b].Lock()
	defer s.bucketMu[b].Unlock()
	found := false
	for off, step := binary.LittleEndian.Uint64(mem[offBucketHeads+8*b:]), 0; s.chainLink(off, step); step++ {
		rec := mem[off : off+uint64(s.regionSize)]
		if s.recordKeyEquals(rec, storedKey) {
			flags := binary.LittleEndian.Uint32(rec[recFlags:])
			if flags&(flagOutdated|flagDeleted) == 0 {
				found = true
			}
			binary.LittleEndian.PutUint32(rec[recFlags:], flags|flagDeleted|flagOutdated)
			// Stamp the deletion epoch so the cleaner honours grace.
			binary.LittleEndian.PutUint64(rec[recEpoch:], s.epoch.Add(1))
		}
		off = binary.LittleEndian.Uint64(rec[recNext:])
	}
	return found, nil
}

// Sync flushes the store to its backing file (msync on Linux).
func (s *Store) Sync() error {
	if !s.enter() {
		return ErrClosed
	}
	defer s.memMu.RUnlock()
	if inj := s.flt.Load(); inj != nil {
		switch act := inj.At(faults.SitePosSync); act.Class {
		case faults.SyncFail:
			return ErrInjectedSync
		case faults.Delay:
			time.Sleep(act.Delay)
		}
	}
	defer s.observeSync(s.opStart())
	return s.syncer()
}

// enter admits one operation on the mapping, or reports false once the
// store is closed. An admitted operation holds memMu for reading until
// it is done with s.mem, so Close cannot unmap it underneath.
func (s *Store) enter() bool {
	s.memMu.RLock()
	if s.closed.Load() {
		s.memMu.RUnlock()
		return false
	}
	return true
}

// Close flushes and releases the store. Operations still in flight are
// waited for; any that start later fail with ErrClosed.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.memMu.Lock()
	defer s.memMu.Unlock()
	return s.closer()
}

// StoreSealedKey writes a sealed key blob into the dedicated slot
// (Section 4.1: encryption keys survive reboots as sealed data inside
// the POS).
func (s *Store) StoreSealedKey(blob []byte) error {
	if !s.enter() {
		return ErrClosed
	}
	defer s.memMu.RUnlock()
	if len(blob) > pageSize-4 {
		return fmt.Errorf("pos: sealed blob %d bytes exceeds slot", len(blob))
	}
	binary.LittleEndian.PutUint32(s.mem[offSealedLen:], uint32(len(blob)))
	copy(s.mem[offSealedBlob:], blob)
	return nil
}

// LoadSealedKey reads back the sealed key blob.
func (s *Store) LoadSealedKey() ([]byte, error) {
	if !s.enter() {
		return nil, ErrClosed
	}
	defer s.memMu.RUnlock()
	n := int(binary.LittleEndian.Uint32(s.mem[offSealedLen:]))
	if n == 0 {
		return nil, ErrNoSealedKey
	}
	if n > pageSize-4 {
		return nil, ErrBadStore
	}
	out := make([]byte, n)
	copy(out, s.mem[offSealedBlob:offSealedBlob+n])
	return out, nil
}

// Range calls fn for the newest live version of every key, in no
// particular order, until fn returns false. In encrypted mode keys and
// values are decrypted for the callback. Mutations during iteration are
// allowed (bucket locks are taken one at a time).
func (s *Store) Range(fn func(key, value []byte) bool) error {
	mem := s.mem
	for b := 0; b < s.buckets; b++ {
		// Admitted per bucket, not across fn, which may call back into
		// the store while Close waits.
		if !s.enter() {
			return ErrClosed
		}
		s.bucketMu[b].Lock()
		seen := make(map[string]bool)
		type pair struct{ key, value []byte }
		var out []pair
		for off, step := binary.LittleEndian.Uint64(mem[offBucketHeads+8*b:]), 0; s.chainLink(off, step); step++ {
			rec := mem[off : off+uint64(s.regionSize)]
			keyLen, valLen, ok := s.recordSpans(rec)
			if !ok {
				break // corrupted record: the rest of this chain is lost
			}
			storedKey := rec[recData : recData+keyLen]
			flags := binary.LittleEndian.Uint32(rec[recFlags:])
			if !seen[string(storedKey)] {
				seen[string(storedKey)] = true
				if flags&flagDeleted == 0 {
					k := append([]byte(nil), storedKey...)
					v := append([]byte(nil), rec[recData+keyLen:recData+keyLen+valLen]...)
					out = append(out, pair{k, v})
				}
			}
			off = binary.LittleEndian.Uint64(rec[recNext:])
		}
		s.bucketMu[b].Unlock()
		s.memMu.RUnlock()

		for _, p := range out {
			key, value := p.key, p.value
			if s.det != nil {
				combined, err := s.pair.Open(nil, value, key)
				if err != nil {
					continue // not decryptable under this store key
				}
				if len(combined) < 4 {
					continue
				}
				kl := int(binary.LittleEndian.Uint32(combined))
				if kl < 0 || 4+kl > len(combined) {
					continue
				}
				key = combined[4 : 4+kl]
				value = combined[4+kl:]
			}
			if !fn(key, value) {
				return nil
			}
		}
	}
	return nil
}

// Stats summarises store occupancy.
type Stats struct {
	Sets, Gets, Cleaned uint64
	Regions             int
	FreeRegions         int
}

// Stats returns operation counters and occupancy.
func (s *Store) Stats() Stats {
	return Stats{
		Sets:        s.sets.Load(),
		Gets:        s.gets.Load(),
		Cleaned:     s.cleaned.Load(),
		Regions:     s.regionCount,
		FreeRegions: s.FreeRegions(),
	}
}
