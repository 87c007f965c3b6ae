// Package ecrypto provides the cryptographic helpers the EActors runtime
// uses: AEAD sealing for inter-enclave channels, key derivation, and the
// deterministic (SIV-style) encryption the persistent object store needs
// so that encrypted keys remain comparable (Section 4.1: "the storage
// simply compares the encrypted keys").
package ecrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"slices"
	"sync"
	"sync/atomic"
)

// KeySize is the AES-256 key size used throughout.
const KeySize = 32

// NonceSize is the length of the explicit nonce that leads every blob.
const NonceSize = 12

// Overhead is the ciphertext expansion of Cipher.Seal (nonce + GCM tag).
const Overhead = NonceSize + 16

// ErrCiphertextTooShort reports a blob shorter than the AEAD envelope.
var ErrCiphertextTooShort = errors.New("ecrypto: ciphertext too short")

// ErrAuthFailed reports an authentication failure during Open.
var ErrAuthFailed = errors.New("ecrypto: message authentication failed")

// DeriveKey derives a subkey from a parent key and a label, HKDF-style
// (single-block HMAC-SHA256 expansion, sufficient for 32-byte outputs).
func DeriveKey(parent [KeySize]byte, label string) [KeySize]byte {
	mac := hmac.New(sha256.New, parent[:])
	mac.Write([]byte(label))
	mac.Write([]byte{0x01})
	var out [KeySize]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// Cipher is an AES-256-GCM sealer with an explicit per-message nonce
// carried in the ciphertext. Nonces combine a caller-chosen 4-byte
// direction tag with a 64-bit counter, so the two endpoints of a
// bidirectional channel can share one key without nonce collisions.
// Cipher is safe for concurrent use.
type Cipher struct {
	aead    cipher.AEAD
	dirTag  uint32
	counter atomic.Uint64
}

// NewCipher builds a sealer from a 32-byte key and a direction tag.
func NewCipher(key [KeySize]byte, dirTag uint32) (*Cipher, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("ecrypto: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("ecrypto: %w", err)
	}
	return &Cipher{aead: aead, dirTag: dirTag}, nil
}

// Seal encrypts plaintext into dst (which may be nil) and returns the
// blob nonce||ciphertext||tag. aad is authenticated but not encrypted.
// To seal in place, put the plaintext NonceSize bytes past the end of
// dst in the same buffer, with room for the tag behind it. The nonce is
// built inside dst: a local array would escape through the cipher.AEAD
// interface and cost an allocation per message.
func (c *Cipher) Seal(dst, plaintext, aad []byte) []byte {
	var zero [NonceSize]byte
	dst = append(dst, zero[:]...)
	nonce := dst[len(dst)-NonceSize:]
	binary.BigEndian.PutUint32(nonce[:4], c.dirTag)
	binary.BigEndian.PutUint64(nonce[4:], c.counter.Add(1))
	return c.aead.Seal(dst, nonce, plaintext, aad)
}

// Open authenticates and decrypts a blob produced by Seal with the same
// key (any direction tag) and aad, appending the plaintext to dst.
func (c *Cipher) Open(dst, blob, aad []byte) ([]byte, error) {
	if len(blob) < Overhead {
		return nil, ErrCiphertextTooShort
	}
	out, err := c.aead.Open(dst, blob[:NonceSize], blob[NonceSize:], aad)
	if err != nil {
		return nil, ErrAuthFailed
	}
	return out, nil
}

// SealedLen returns the blob size for a plaintext of n bytes.
func SealedLen(n int) int { return n + Overhead }

// BlobCounter extracts the sender's message counter from a sealed blob's
// explicit nonce (for replay checks after authentication succeeded).
// Returns 0 for blobs shorter than a nonce.
func BlobCounter(blob []byte) uint64 {
	if len(blob) < NonceSize {
		return 0
	}
	return binary.BigEndian.Uint64(blob[4:NonceSize])
}

// Deterministic is an SIV-style deterministic AEAD: the nonce is a MAC of
// the plaintext, so equal plaintexts produce equal ciphertexts. The POS
// uses it for keys, making hash-bucket lookup and comparison possible on
// ciphertext alone. (Equality of plaintexts is deliberately revealed —
// that is the point — but nothing else is.)
type Deterministic struct {
	aead cipher.AEAD
	// macs pools keyed HMAC-SHA256 states: building one costs the key
	// schedule and several allocations, and every sealed key (each POS
	// lookup and write-back) needs one. Deterministic is used
	// concurrently, so one shared state would need a lock.
	macs sync.Pool
}

// NewDeterministic builds a deterministic sealer from a 32-byte key.
func NewDeterministic(key [KeySize]byte) (*Deterministic, error) {
	encKey := DeriveKey(key, "siv-enc")
	macKey := DeriveKey(key, "siv-mac")
	block, err := aes.NewCipher(encKey[:])
	if err != nil {
		return nil, fmt.Errorf("ecrypto: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("ecrypto: %w", err)
	}
	d := &Deterministic{aead: aead}
	d.macs.New = func() any { return hmac.New(sha256.New, macKey[:]) }
	return d, nil
}

// Seal deterministically encrypts plaintext: same input, same output.
func (d *Deterministic) Seal(plaintext []byte) []byte { return d.AppendSeal(nil, plaintext) }

// AppendSeal appends the deterministic blob for plaintext to dst and
// returns the extended slice. It allocates only when dst lacks room for
// max(SealedLen(len(plaintext)), 32) more bytes: the MAC is summed in
// place past len(dst), so bytes up to that bound are scratch. plaintext
// must not overlap that space.
func (d *Deterministic) AppendSeal(dst, plaintext []byte) []byte {
	dst = slices.Grow(dst, max(SealedLen(len(plaintext)), sha256.Size))
	mac := d.macs.Get().(hash.Hash)
	mac.Reset()
	mac.Write(plaintext)
	// The MAC is summed into the blob itself (a local array would escape
	// through the hash.Hash interface); its first NonceSize bytes are the
	// nonce and the rest is overwritten by the ciphertext.
	n := len(dst)
	blob := mac.Sum(dst)[:n+NonceSize]
	d.macs.Put(mac)
	return d.aead.Seal(blob, blob[n:], plaintext, nil)
}
