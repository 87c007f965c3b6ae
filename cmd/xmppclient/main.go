// Command xmppclient is an interactive client for the EActors messaging
// service (and the baseline servers — they speak the same subset).
//
// Usage:
//
//	xmppclient -server 127.0.0.1:5222 -user alice
//
// Commands at the prompt:
//
//	/msg <user> <text>     send a one-to-one message
//	/join <room>           join a group chat
//	/leave <room>          leave a group chat
//	/room <room> <text>    send a (service-re-encrypted) group message
//	/ping                  ping the service
//	/who <user>            ask whether a user is online
//	/quit                  close the stream and exit
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/eactors/eactors-go/internal/xmpp/client"
	"github.com/eactors/eactors-go/internal/xmpp/stanza"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xmppclient:", err)
		os.Exit(1)
	}
}

// iqTimeout bounds the wait for the answer to /ping and /who.
const iqTimeout = 5 * time.Second

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("xmppclient", flag.ContinueOnError)
	server := fs.String("server", "", "server address")
	user := fs.String("user", "", "user name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server == "" || *user == "" {
		return fmt.Errorf("usage: xmppclient -server host:port -user name")
	}

	c, err := client.Dial(*server, *user, 10*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Fprintf(stdout, "connected to %s as %s\n", *server, *user)

	// One goroutine owns the read side of the stream and hands every
	// stanza to this one, which prints messages and matches iq results to
	// the command waiting for them. The channel closes with the stream.
	done := make(chan struct{})
	defer close(done)
	stanzas := make(chan stanza.Stanza)
	go func() {
		defer close(stanzas)
		for {
			el, err := c.ReadStanza(0)
			if err != nil {
				return
			}
			select {
			case stanzas <- el:
			case <-done:
				return
			}
		}
	}()
	lines := make(chan string)
	var scanErr error
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdin)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-done:
				return
			}
		}
		scanErr = sc.Err()
	}()

	s := &session{c: c, out: stdout, stanzas: stanzas}
	fmt.Fprint(stdout, "> ")
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				return scanErr
			}
			if line = strings.TrimSpace(line); line != "" {
				if err := s.handle(line); errors.Is(err, errQuit) {
					return nil
				} else if err != nil {
					fmt.Fprintln(stdout, "error:", err)
				}
			}
			fmt.Fprint(stdout, "> ")
		case el, ok := <-stanzas:
			if !ok {
				fmt.Fprintln(stdout, "\n[connection closed]")
				return nil
			}
			s.show(el)
		}
	}
}

var errQuit = errors.New("quit")

// session is the command loop's side of one connection.
type session struct {
	c       *client.Client
	out     io.Writer
	stanzas <-chan stanza.Stanza
}

// show prints a received chat or groupchat message; other stanzas are
// ignored.
func (s *session) show(el stanza.Stanza) {
	if el.Name != "message" {
		return
	}
	msg, err := s.c.Decode(el)
	switch {
	case err != nil:
		fmt.Fprintf(s.out, "\r%v\n> ", err)
	case msg.Group:
		fmt.Fprintf(s.out, "\r[%s] %s: %s\n> ", msg.To, msg.From, msg.Body)
	default:
		fmt.Fprintf(s.out, "\r%s: %s\n> ", msg.From, msg.Body)
	}
}

// iq sends a get iq with the given child and waits for its result,
// printing the messages that arrive first.
func (s *session) iq(child string) (stanza.Stanza, error) {
	id, err := s.c.SendIQ(child)
	if err != nil {
		return stanza.Stanza{}, err
	}
	timeout := time.NewTimer(iqTimeout)
	defer timeout.Stop()
	for {
		select {
		case el, ok := <-s.stanzas:
			if !ok {
				return stanza.Stanza{}, client.ErrStreamClosed
			}
			if match, err := client.IQResult(el, id); match {
				return el, err
			}
			s.show(el)
		case <-timeout.C:
			return stanza.Stanza{}, fmt.Errorf("no answer to iq %s within %v", id, iqTimeout)
		}
	}
}

func (s *session) handle(line string) error {
	fields := strings.SplitN(line, " ", 3)
	switch fields[0] {
	case "/msg":
		if len(fields) < 3 {
			return fmt.Errorf("usage: /msg <user> <text>")
		}
		return s.c.SendMessage(fields[1], fields[2])
	case "/join":
		if len(fields) < 2 {
			return fmt.Errorf("usage: /join <room>")
		}
		return s.c.JoinRoom(fields[1])
	case "/leave":
		if len(fields) < 2 {
			return fmt.Errorf("usage: /leave <room>")
		}
		return s.c.LeaveRoom(fields[1])
	case "/room":
		if len(fields) < 3 {
			return fmt.Errorf("usage: /room <room> <text>")
		}
		return s.c.SendGroupMessage(fields[1], fields[2])
	case "/ping":
		start := time.Now()
		if _, err := s.iq(client.PingQuery); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "pong in %v\n", time.Since(start).Round(time.Microsecond))
		return nil
	case "/who":
		if len(fields) < 2 {
			return fmt.Errorf("usage: /who <user>")
		}
		el, err := s.iq(client.WhoQuery(fields[1]))
		if err != nil {
			return err
		}
		state := "offline"
		if client.WhoOnline(el) {
			state = "online"
		}
		fmt.Fprintf(s.out, "%s is %s\n", fields[1], state)
		return nil
	case "/quit":
		return errQuit
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
}
