package xmpp

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"github.com/eactors/eactors-go/internal/ecrypto"
)

func testKey() [ecrypto.KeySize]byte {
	var k [ecrypto.KeySize]byte
	for i := range k {
		k[i] = byte(i + 1)
	}
	return k
}

func TestOnlineListPlain(t *testing.T) {
	l, err := NewOnlineList(false, [ecrypto.KeySize]byte{})
	if err != nil {
		t.Fatalf("NewOnlineList: %v", err)
	}
	if l.Sealed() {
		t.Fatal("plain list claims to be sealed")
	}
	l.Add(OnlineEntry{User: "alice", Sock: 7, Key: "cafe"})
	e, ok := l.Get("alice")
	if !ok || e.Sock != 7 || e.Key != "cafe" || e.User != "alice" {
		t.Fatalf("Get = %+v ok=%v", e, ok)
	}
	if _, ok := l.Get("bob"); ok {
		t.Fatal("absent user found")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
	l.Remove("alice")
	if _, ok := l.Get("alice"); ok {
		t.Fatal("removed user still present")
	}
}

func TestOnlineListSealed(t *testing.T) {
	l, err := NewOnlineList(true, testKey())
	if err != nil {
		t.Fatalf("NewOnlineList: %v", err)
	}
	if !l.Sealed() {
		t.Fatal("sealed list claims plain")
	}
	l.Add(OnlineEntry{User: "carol", Sock: 42, Key: "beef"})
	e, ok := l.Get("carol")
	if !ok || e.Sock != 42 || e.Key != "beef" {
		t.Fatalf("sealed Get = %+v ok=%v", e, ok)
	}
	// The stored representation must not contain the plaintext fields.
	l.mu.RLock()
	raw := l.entries["carol"]
	l.mu.RUnlock()
	if string(raw) == "" {
		t.Fatal("no stored entry")
	}
	for _, needle := range []string{"beef"} {
		if containsSub(raw, needle) {
			t.Fatalf("sealed entry leaks %q", needle)
		}
	}
}

func containsSub(b []byte, s string) bool {
	for i := 0; i+len(s) <= len(b); i++ {
		if string(b[i:i+len(s)]) == s {
			return true
		}
	}
	return false
}

func TestOnlineListOverwrite(t *testing.T) {
	l, _ := NewOnlineList(false, [ecrypto.KeySize]byte{})
	l.Add(OnlineEntry{User: "u", Sock: 1, Key: "k1"})
	l.Add(OnlineEntry{User: "u", Sock: 2, Key: "k2"})
	e, ok := l.Get("u")
	if !ok || e.Sock != 2 || e.Key != "k2" {
		t.Fatalf("overwrite Get = %+v", e)
	}
	if l.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", l.Len())
	}
}

func TestOnlineListQuickRoundTrip(t *testing.T) {
	sealed, _ := NewOnlineList(true, testKey())
	plain, _ := NewOnlineList(false, [ecrypto.KeySize]byte{})
	f := func(user string, sock uint32, key string) bool {
		if len(user) == 0 || len(user) > 200 || len(key) > 200 {
			return true // encoding uses 1-byte lengths
		}
		want := OnlineEntry{User: user, Sock: sock, Key: key}
		for _, l := range []*OnlineList{sealed, plain} {
			l.Add(want)
			got, ok := l.Get(user)
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineListConcurrent(t *testing.T) {
	l, _ := NewOnlineList(true, testKey())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			user := fmt.Sprintf("user-%d", id)
			for i := 0; i < 200; i++ {
				l.Add(OnlineEntry{User: user, Sock: uint32(i), Key: "k"})
				if e, ok := l.Get(user); !ok || e.User != user {
					t.Errorf("concurrent Get lost %s", user)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestRoomTable(t *testing.T) {
	r := NewRoomTable()
	r.Join("room1", "alice")
	r.Join("room1", "bob")
	r.Join("room2", "alice")

	if got := len(r.Members("room1")); got != 2 {
		t.Fatalf("room1 members = %d", got)
	}
	r.Leave("room1", "bob")
	if got := r.Members("room1"); len(got) != 1 || got[0] != "alice" {
		t.Fatalf("room1 after leave = %v", got)
	}
	// Leave of absent member / room is a no-op.
	r.Leave("room1", "ghost")
	r.Leave("no-room", "alice")

	r.LeaveAll("alice")
	if len(r.Members("room1")) != 0 || len(r.Members("room2")) != 0 {
		t.Fatal("LeaveAll left memberships behind")
	}
	if len(r.Members("missing")) != 0 {
		t.Fatal("missing room has members")
	}
}

func TestHandoffCodec(t *testing.T) {
	entry := OnlineEntry{User: "alice", Sock: 99, Key: "deadbeef"}
	blob := appendHandoff(nil, entry)
	gotEntry, err := decodeHandoff(blob)
	if err != nil {
		t.Fatalf("decodeHandoff: %v", err)
	}
	if gotEntry != entry {
		t.Fatalf("roundtrip = %+v", gotEntry)
	}

	// Truncations must error, not panic.
	for i := 0; i < len(blob); i++ {
		if _, err := decodeHandoff(blob[:i]); err == nil {
			t.Fatalf("truncated handoff at %d accepted", i)
		}
	}
	if _, err := decodeHandoff(appendSockMsg(nil, handoffBytes, 99, nil)); err == nil {
		t.Fatal("wrong-type handoff accepted")
	}
}

func TestStrayCodec(t *testing.T) {
	blob := appendSockMsg(nil, handoffBytes, 7, []byte("partial bytes"))
	kind, sock, data, err := decodeSockMsg(blob)
	if err != nil || kind != handoffBytes || sock != 7 || string(data) != "partial bytes" {
		t.Fatalf("roundtrip = %d %d %q %v", kind, sock, data, err)
	}
	for i := 0; i < len(blob); i++ {
		if _, _, _, err := decodeSockMsg(blob[:i]); err == nil {
			t.Fatalf("truncated stray at %d accepted", i)
		}
	}
	if kind, sock, data, err := decodeSockMsg(appendSockMsg(nil, handoffWatch, 8, nil)); err != nil ||
		kind != handoffWatch || sock != 8 || len(data) != 0 {
		t.Fatalf("watch marker roundtrip = %d %d %q %v", kind, sock, data, err)
	}
	if _, _, _, err := decodeSockMsg(appendHandoff(nil, OnlineEntry{User: "a", Sock: 7})); err == nil {
		t.Fatal("session handoff accepted as a socket message")
	}
}

func TestHandoffQuick(t *testing.T) {
	f := func(user, key string, sock uint32) bool {
		if len(user) == 0 || len(user) > 255 || len(key) > 255 {
			return true
		}
		e := OnlineEntry{User: user, Sock: sock, Key: key}
		got, err := decodeHandoff(appendHandoff(nil, e))
		return err == nil && got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBodyCipherHelpers(t *testing.T) {
	key := testKey()
	clientCipher, err := NewClientBodyCipher(key)
	if err != nil {
		t.Fatalf("NewClientBodyCipher: %v", err)
	}
	sealed := SealBodyWith(clientCipher, "hello room")

	serverCipher, err := ServerBodyCipher(fmt.Sprintf("%x", key))
	if err != nil {
		t.Fatalf("ServerBodyCipher: %v", err)
	}
	got, err := OpenBodyWith(serverCipher, sealed)
	if err != nil || got != "hello room" {
		t.Fatalf("OpenBodyWith = %q, %v", got, err)
	}

	// Bad inputs.
	if _, err := OpenBodyWith(serverCipher, "not-hex!"); err == nil {
		t.Fatal("non-hex body accepted")
	}
	if _, err := OpenBodyWith(serverCipher, "deadbeef"); err == nil {
		t.Fatal("garbage ciphertext accepted")
	}
	if _, err := ServerBodyCipher("zz"); err == nil {
		t.Fatal("bad key hex accepted")
	}
	if _, err := ServerBodyCipher("abcd"); err == nil {
		t.Fatal("short key accepted")
	}
}

// Sealed reports whether entries are encrypted at rest.
func (l *OnlineList) Sealed() bool { return l.cipher != nil }
