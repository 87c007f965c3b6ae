package xmpp

import (
	"sync/atomic"

	"github.com/eactors/eactors-go/internal/pos"
)

// Directory is the Online-list abstraction the CONNECTOR and the XMPP
// eactors share (Figure 7). Two implementations exist: the in-memory
// OnlineList (optionally sealed at rest) and POSDirectory, which keeps
// the entries in a Persistent Object Store — the deployment Section 4.1
// describes, where the POS "handles configuration and application data"
// accessible to all eactors.
type Directory interface {
	// Add registers (or replaces) a user's connection entry.
	Add(e OnlineEntry)
	// Get looks a user up.
	Get(user string) (OnlineEntry, bool)
	// Sock returns the socket of the user named by the bytes: the
	// lookup that routes a message. An entry sealed at rest is opened
	// into *scratch, which the caller keeps between lookups; the list is
	// shared across shards, so the buffer cannot live on it unlocked.
	Sock(user []byte, scratch *[]byte) (uint32, bool)
	// Remove unregisters a user.
	Remove(user string)
	// Len returns the number of online users.
	Len() int
}

// Interface checks.
var (
	_ Directory = (*OnlineList)(nil)
	_ Directory = (*POSDirectory)(nil)
)

// directoryPrefix namespaces online entries inside a shared store.
const directoryPrefix = "online:"

// POSDirectory is a Directory over a pos.Store. Confidentiality at rest
// comes from opening the store in encrypted mode; the directory itself
// stores the encoded entry as the value under "online:<user>".
type POSDirectory struct {
	store *pos.Store
	count atomic.Int64
}

// NewPOSDirectory wraps a store as a connection directory.
func NewPOSDirectory(store *pos.Store) *POSDirectory {
	return &POSDirectory{store: store}
}

// Add registers (or replaces) a user's entry.
func (d *POSDirectory) Add(e OnlineEntry) {
	key := []byte(directoryPrefix + e.User)
	_, existed, _ := d.store.Get(key)
	if err := d.store.Set(key, encodeEntry(e)); err != nil {
		return // store full: the connection stays unroutable until space frees
	}
	if !existed {
		d.count.Add(1)
	}
}

// Get looks a user up.
func (d *POSDirectory) Get(user string) (OnlineEntry, bool) {
	val, ok, err := d.store.Get([]byte(directoryPrefix + user))
	if err != nil || !ok {
		return OnlineEntry{}, false
	}
	e, err := decodeEntry(val)
	if err != nil {
		return OnlineEntry{}, false
	}
	return e, true
}

// Sock returns a user's socket. The store decodes into its own copy, so
// scratch is unused.
func (d *POSDirectory) Sock(user []byte, _ *[]byte) (uint32, bool) {
	e, ok := d.Get(string(user))
	return e.Sock, ok
}

// Remove unregisters a user.
func (d *POSDirectory) Remove(user string) {
	found, err := d.store.Delete([]byte(directoryPrefix + user))
	if err == nil && found {
		d.count.Add(-1)
	}
}

// Len returns the number of online users.
func (d *POSDirectory) Len() int { return int(d.count.Load()) }
