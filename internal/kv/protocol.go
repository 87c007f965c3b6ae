// Package kv is the networked secure key-value service: the paper's
// Persistent Object Store (Section 4.1) opened to the network through
// the system eactors of Section 4.2. Clients speak a small binary
// request/response encoding carried in the framed transport
// (internal/transport) over TCP; an untrusted FRONTEND eactor reassembles
// the frames and routes each request by key affinity to the KVSTORE eactor
// owning that key's POS shard, so requests for different shards execute
// in parallel and never contend on one store lock. When the deployment
// is trusted, the KVSTORE eactors run inside enclaves, the routing
// channels encrypt automatically at the enclave boundary, and the
// sharded store seals every record at rest.
package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Op discriminates client requests.
type Op uint8

// Request operations.
const (
	// OpGet looks a key up; answered by StatusValue or StatusNotFound.
	OpGet Op = iota + 1
	// OpSet stores a key/value pair; answered by StatusOK.
	OpSet
	// OpDel removes a key; answered by StatusOK (existed) or
	// StatusNotFound.
	OpDel
)

// Status discriminates server responses.
type Status uint8

// Response statuses.
const (
	// StatusValue carries a found value.
	StatusValue Status = iota + 1
	// StatusNotFound reports a missing key.
	StatusNotFound
	// StatusOK acknowledges a write.
	StatusOK
	// StatusErr reports a failed operation; Val is the error text.
	StatusErr
)

const (
	reqHeader  = 1 + 4 + 2 + 2 // op + id + keyLen + valLen
	respHeader = 1 + 4 + 2     // status + id + valLen
)

// MaxKey and MaxVal bound single-frame keys and values.
const (
	MaxKey = 0xFFFF
	MaxVal = 0xFFFF
)

// ErrShortFrame reports a truncated encoding.
var ErrShortFrame = errors.New("kv: short frame")

// Request is one client operation. It rides as the payload of a
// transport TRequest frame, whose opaque correlates the response; ID is
// echoed back unchanged but PipelinedClient leaves it zero.
type Request struct {
	Op  Op
	ID  uint32
	Key []byte
	Val []byte
}

// Response is one server answer, the payload of a TResponse frame; ID
// echoes the request.
type Response struct {
	Status Status
	ID     uint32
	Val    []byte
}

// AppendTo encodes r at the end of buf.
func (r Request) AppendTo(buf []byte) ([]byte, error) {
	hdr, err := r.header()
	if err != nil {
		return nil, err
	}
	buf = append(buf, hdr[:]...)
	buf = append(buf, r.Key...)
	return append(buf, r.Val...), nil
}

// header encodes r's fixed-size header; Key and Val follow it on the
// wire.
func (r Request) header() (hdr [reqHeader]byte, err error) {
	if len(r.Key) > MaxKey || len(r.Val) > MaxVal {
		return hdr, fmt.Errorf("kv: request key %d / val %d exceeds frame limit", len(r.Key), len(r.Val))
	}
	hdr[0] = byte(r.Op)
	binary.LittleEndian.PutUint32(hdr[1:], r.ID)
	binary.LittleEndian.PutUint16(hdr[5:], uint16(len(r.Key)))
	binary.LittleEndian.PutUint16(hdr[7:], uint16(len(r.Val)))
	return hdr, nil
}

// ParseRequest decodes one request; Key and Val alias b. The returned
// length is the number of bytes consumed.
func ParseRequest(b []byte) (Request, int, error) {
	if len(b) < reqHeader {
		return Request{}, 0, ErrShortFrame
	}
	k := int(binary.LittleEndian.Uint16(b[5:]))
	v := int(binary.LittleEndian.Uint16(b[7:]))
	total := reqHeader + k + v
	if len(b) < total {
		return Request{}, 0, ErrShortFrame
	}
	return Request{
		Op:  Op(b[0]),
		ID:  binary.LittleEndian.Uint32(b[1:]),
		Key: b[reqHeader : reqHeader+k],
		Val: b[reqHeader+k : total],
	}, total, nil
}

// AppendTo encodes r at the end of buf.
func (r Response) AppendTo(buf []byte) ([]byte, error) {
	if len(r.Val) > MaxVal {
		return nil, fmt.Errorf("kv: response val %d exceeds frame limit", len(r.Val))
	}
	var hdr [respHeader]byte
	hdr[0] = byte(r.Status)
	binary.LittleEndian.PutUint32(hdr[1:], r.ID)
	binary.LittleEndian.PutUint16(hdr[5:], uint16(len(r.Val)))
	buf = append(buf, hdr[:]...)
	return append(buf, r.Val...), nil
}

// ParseResponse decodes one response; Val aliases b. The returned
// length is the number of bytes consumed.
func ParseResponse(b []byte) (Response, int, error) {
	if len(b) < respHeader {
		return Response{}, 0, ErrShortFrame
	}
	v := int(binary.LittleEndian.Uint16(b[5:]))
	total := respHeader + v
	if len(b) < total {
		return Response{}, 0, ErrShortFrame
	}
	return Response{
		Status: Status(b[0]),
		ID:     binary.LittleEndian.Uint32(b[1:]),
		Val:    b[respHeader : respHeader+v],
	}, total, nil
}
