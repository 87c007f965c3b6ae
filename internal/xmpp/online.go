// Package xmpp implements the paper's secure instant-messaging use case
// (Section 5.1): an XMPP-subset service built from eactors — an enclaved
// CONNECTOR that accepts and authenticates clients, and N enclaved XMPP
// eactors (shards) with untrusted READER/WRITER networking eactors —
// plus the shared Online list and room table. One-to-one messages are
// routed blindly (end-to-end encryption is the clients' business);
// group-chat messages are decrypted and re-encrypted per member with
// service-level keys inside the XMPP eactor.
package xmpp

import (
	"encoding/binary"
	"errors"
	"sync"

	"github.com/eactors/eactors-go/internal/ecrypto"
)

// OnlineEntry describes one authenticated connection.
type OnlineEntry struct {
	User string
	Sock uint32
	// Key is the client's service-level session key (hex as sent in the
	// auth stanza), used for group-chat re-encryption.
	Key string
}

// OnlineList is the connection directory shared between the CONNECTOR
// and the XMPP eactors (Figure 7). When its producers and consumers live
// in different enclaves, entries are sealed at rest with a directory key
// so the untrusted runtime cannot read them — the cost of which is what
// makes the paper's single-enclave deployment slightly faster than the
// multi-enclave one (Figure 16, +6.2%).
type OnlineList struct {
	mu      sync.RWMutex
	entries map[string][]byte // user -> encoded (possibly sealed) entry
	cipher  *ecrypto.Cipher   // nil when all parties share one enclave
}

// NewOnlineList creates the directory. sealed selects encrypted-at-rest
// entries (multi-enclave deployments).
func NewOnlineList(sealed bool, key [ecrypto.KeySize]byte) (*OnlineList, error) {
	l := &OnlineList{entries: make(map[string][]byte)}
	if sealed {
		c, err := ecrypto.NewCipher(key, 3)
		if err != nil {
			return nil, err
		}
		l.cipher = c
	}
	return l, nil
}

func encodeEntry(e OnlineEntry) []byte {
	buf := make([]byte, 0, 8+len(e.User)+len(e.Key))
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], e.Sock)
	buf = append(buf, tmp[:]...)
	buf = append(buf, byte(len(e.User)))
	buf = append(buf, e.User...)
	buf = append(buf, byte(len(e.Key)))
	buf = append(buf, e.Key...)
	return buf
}

var errBadEntry = errors.New("xmpp: corrupt online entry")

func decodeEntry(b []byte) (OnlineEntry, error) {
	if len(b) < 6 {
		return OnlineEntry{}, errBadEntry
	}
	sock := binary.LittleEndian.Uint32(b)
	ul := int(b[4])
	if len(b) < 5+ul+1 {
		return OnlineEntry{}, errBadEntry
	}
	user := string(b[5 : 5+ul])
	kl := int(b[5+ul])
	if len(b) < 6+ul+kl {
		return OnlineEntry{}, errBadEntry
	}
	key := string(b[6+ul : 6+ul+kl])
	return OnlineEntry{User: user, Sock: sock, Key: key}, nil
}

// Add registers (or replaces) a user's connection.
func (l *OnlineList) Add(e OnlineEntry) {
	enc := encodeEntry(e)
	if l.cipher != nil {
		enc = l.cipher.Seal(nil, enc, nil)
	}
	l.mu.Lock()
	l.entries[e.User] = enc
	l.mu.Unlock()
}

// Get looks a user up.
func (l *OnlineList) Get(user string) (OnlineEntry, bool) {
	l.mu.RLock()
	enc, ok := l.entries[user]
	l.mu.RUnlock()
	if !ok {
		return OnlineEntry{}, false
	}
	if enc, ok = l.open(nil, enc); !ok {
		return OnlineEntry{}, false
	}
	e, err := decodeEntry(enc)
	if err != nil {
		return OnlineEntry{}, false
	}
	return e, true
}

// Sock returns a user's socket without decoding the entry's strings. A
// sealed entry is opened into *scratch (see Directory.Sock), so once
// the buffer has grown a lookup allocates nothing on either list.
func (l *OnlineList) Sock(user []byte, scratch *[]byte) (uint32, bool) {
	l.mu.RLock()
	enc, ok := l.entries[string(user)]
	l.mu.RUnlock()
	if !ok {
		return 0, false
	}
	if enc, ok = l.open((*scratch)[:0], enc); !ok {
		return 0, false
	}
	if l.cipher != nil {
		*scratch = enc // keep the grown buffer; never alias a plain entry
	}
	if len(enc) < 4 {
		return 0, false
	}
	return binary.LittleEndian.Uint32(enc), true
}

// open returns a stored entry's encoding: enc itself on a plain list,
// else enc opened and appended to dst. An entry that fails to open reads
// as absent.
func (l *OnlineList) open(dst, enc []byte) ([]byte, bool) {
	if l.cipher == nil {
		return enc, true
	}
	plain, err := l.cipher.Open(dst, enc, nil)
	return plain, err == nil
}

// Remove unregisters a user.
func (l *OnlineList) Remove(user string) {
	l.mu.Lock()
	delete(l.entries, user)
	l.mu.Unlock()
}

// Len returns the number of online users.
func (l *OnlineList) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// RoomTable maps chat rooms to their members, shared like the Online
// list (and sealed under the same conditions — membership is sensitive).
type RoomTable struct {
	mu    sync.RWMutex
	rooms map[string]map[string]bool
}

// NewRoomTable creates an empty room table.
func NewRoomTable() *RoomTable {
	return &RoomTable{rooms: make(map[string]map[string]bool)}
}

// Join adds user to room.
func (r *RoomTable) Join(room, user string) {
	r.mu.Lock()
	members, ok := r.rooms[room]
	if !ok {
		members = make(map[string]bool)
		r.rooms[room] = members
	}
	members[user] = true
	r.mu.Unlock()
}

// Leave removes user from room.
func (r *RoomTable) Leave(room, user string) {
	r.mu.Lock()
	if members, ok := r.rooms[room]; ok {
		delete(members, user)
		if len(members) == 0 {
			delete(r.rooms, room)
		}
	}
	r.mu.Unlock()
}

// LeaveAll removes user from every room (disconnect path).
func (r *RoomTable) LeaveAll(user string) {
	r.mu.Lock()
	for room, members := range r.rooms {
		delete(members, user)
		if len(members) == 0 {
			delete(r.rooms, room)
		}
	}
	r.mu.Unlock()
}

// Members returns a snapshot of a room's membership.
func (r *RoomTable) Members(room string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	members := r.rooms[room]
	out := make([]string, 0, len(members))
	for m := range members {
		out = append(out, m)
	}
	return out
}
