package netactors

import "github.com/eactors/eactors-go/internal/core"

// Listener brings up an eactor's server socket in three steps: ask the
// OPENER to listen (MsgListen), await its MsgOpenOK, then watch the
// listener with the ACCEPTER (MsgWatch). A step that meets a full
// channel is retried on the next invocation, so the body never blocks.
type Listener struct {
	addr  string
	phase int
	sock  uint32
	buf   []byte
}

const (
	lisRequest = iota
	lisAwait
	lisWatch
	lisUp
)

// NewListener returns the bring-up of a listener on addr.
func NewListener(addr string) *Listener { return &Listener{addr: addr} }

// Up advances the bring-up as far as it can and reports whether the
// listener is watched, so accepts flow. On MsgOpenOK it sends the bound
// address (":0" resolved) to bound, once.
func (l *Listener) Up(self *core.Self, open, accept *core.Endpoint, bound chan<- string) bool {
	switch l.phase {
	case lisRequest:
		if l.buf == nil {
			l.buf = make([]byte, open.MaxPayload())
		}
		m, err := (Msg{Type: MsgListen, Data: []byte(l.addr)}).AppendTo(l.buf[:0])
		if err != nil || open.Send(m) != nil {
			return false
		}
		l.phase = lisAwait
		self.Progress()
	case lisAwait:
		n, ok, err := open.Recv(l.buf)
		if err != nil || !ok {
			return false
		}
		msg, err := ParseMsg(l.buf[:n])
		if err != nil || msg.Type != MsgOpenOK {
			return false
		}
		l.sock = msg.Sock
		l.phase = lisWatch
		bound <- string(msg.Data)
		self.Progress()
		fallthrough
	case lisWatch:
		// An unwatched listener accepts nobody, so this step repeats
		// until the watch lands.
		m, _ := (Msg{Type: MsgWatch, Sock: l.sock}).AppendTo(l.buf[:0])
		if accept.Send(m) != nil {
			return false
		}
		l.phase = lisUp
		self.Progress()
	}
	return l.phase == lisUp
}
