package trigger

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"dcatch/internal/lifecycle"
)

// Server is the paper's message-controller server (§5.1) as a stand-alone
// TCP service, so the timing-manipulation infrastructure can also be used
// as an independent testing framework: processes under test link the tiny
// client API (Request/Confirm) and the server grants permissions in the
// order under exploration.
//
// Line protocol (one command per line):
//
//	client → server: REQUEST <party>
//	server → client: GRANT
//	client → server: CONFIRM <party>
//
// The server waits for REQUESTs from both parties, grants the configured
// first party, waits for its CONFIRM, then grants the second. A REQUEST
// from any other party, or a second REQUEST from a party already seen, is
// answered "ERR unexpected request" at once; a CONFIRM counts only from the
// connection holding that party's GRANT, and any other is answered
// "ERR unexpected confirm".
//
// Connections carry read/write deadlines (DefaultIOTimeout unless changed
// with SetIOTimeout) so a dead client cannot pin a handler goroutine
// forever, and Close drains in-flight REQUEST/GRANT exchanges through the
// shared lifecycle.Drainer before returning: pending requests are woken and
// answered "ERR closing" instead of being abandoned mid-read.
type Server struct {
	ln    net.Listener
	first string // party granted first
	other string

	mu        sync.Mutex
	cond      *sync.Cond
	arrived   map[string]chan struct{} // party -> grant channel
	granted   map[string]bool          // party -> scheduler granted it
	confirms  map[string]bool
	log       []string
	closed    bool
	ioTimeout time.Duration

	drain lifecycle.Drainer
}

// DefaultIOTimeout is the per-command read deadline and per-response write
// deadline applied to controller connections. The REQUEST wait for a grant
// is not limited — a party may legitimately block until the other side of
// the explored order arrives — only the socket I/O around it is.
const DefaultIOTimeout = 2 * time.Minute

// drainTimeout bounds how long Close waits for in-flight exchanges.
const drainTimeout = 5 * time.Second

// NewServer starts a controller on addr (e.g. "127.0.0.1:0"); first and
// second name the parties in grant order.
func NewServer(addr, first, second string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("trigger: listen: %w", err)
	}
	s := &Server{
		ln:        ln,
		first:     first,
		other:     second,
		arrived:   map[string]chan struct{}{},
		granted:   map[string]bool{},
		confirms:  map[string]bool{},
		ioTimeout: DefaultIOTimeout,
	}
	s.cond = sync.NewCond(&s.mu)
	go s.acceptLoop()
	go s.scheduler()
	return s, nil
}

// SetIOTimeout changes the connection read/write deadline (0 disables
// deadlines). It applies to commands read after the call.
func (s *Server) SetIOTimeout(d time.Duration) {
	s.mu.Lock()
	s.ioTimeout = d
	s.mu.Unlock()
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down gracefully: the listener stops accepting, the
// scheduler is released, parties blocked waiting for a GRANT are woken and
// told "ERR closing", and in-flight exchanges get drainTimeout to finish.
// Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Wake parties parked on an un-granted REQUEST; granted channels are
	// already closed by the scheduler.
	for p, ch := range s.arrived {
		if !s.granted[p] {
			close(ch)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	err := s.ln.Close()
	s.drain.Close(drainTimeout)
	return err
}

// Log returns the order of events the server observed.
func (s *Server) Log() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.log...)
}

// ServerStats is a point-in-time snapshot of one controller server, exported
// on the dcatch-trigger debug endpoint (expvar "dcatch_trigger").
type ServerStats struct {
	Addr      string   `json:"addr"`
	First     string   `json:"first"`
	Second    string   `json:"second"`
	Requests  int      `json:"requests"`
	Confirms  int      `json:"confirms"`
	InFlight  int      `json:"in_flight"`
	Closed    bool     `json:"closed"`
	EventLog  []string `json:"event_log"`
	LogLength int      `json:"log_length"`
}

// Stats snapshots the server's protocol state.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ServerStats{
		Addr:      s.ln.Addr().String(),
		First:     s.first,
		Second:    s.other,
		Requests:  len(s.arrived),
		Confirms:  len(s.confirms),
		InFlight:  s.drain.InFlight(),
		Closed:    s.closed,
		EventLog:  append([]string(nil), s.log...),
		LogLength: len(s.log),
	}
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.serve(conn)
	}
}

// reply writes one response line under the configured write deadline.
func (s *Server) reply(conn net.Conn, line string) {
	s.mu.Lock()
	t := s.ioTimeout
	s.mu.Unlock()
	if t > 0 {
		conn.SetWriteDeadline(time.Now().Add(t))
	}
	fmt.Fprintf(conn, "%s\n", line)
}

func (s *Server) serve(conn net.Conn) {
	defer conn.Close()
	held := map[string]bool{} // parties granted on this connection, not yet confirmed
	sc := bufio.NewScanner(conn)
	for {
		s.mu.Lock()
		t := s.ioTimeout
		s.mu.Unlock()
		if t > 0 {
			conn.SetReadDeadline(time.Now().Add(t))
		}
		if !sc.Scan() {
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			s.reply(conn, "ERR malformed")
			continue
		}
		cmd, party := fields[0], fields[1]
		if !s.drain.Enter() {
			s.reply(conn, "ERR closing")
			return
		}
		switch cmd {
		case "REQUEST":
			grant := make(chan struct{})
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				s.reply(conn, "ERR closing")
				s.drain.Exit()
				return
			}
			if party != s.first && party != s.other || s.arrived[party] != nil {
				// A party outside the explored pair, or one already parked:
				// the protocol has no grant for it, so refuse at once rather
				// than park it forever (or orphan the first requester).
				s.mu.Unlock()
				s.reply(conn, "ERR unexpected request")
				break
			}
			s.arrived[party] = grant
			s.log = append(s.log, "request "+party)
			s.cond.Broadcast()
			s.mu.Unlock()
			<-grant
			s.mu.Lock()
			ok := s.granted[party]
			s.mu.Unlock()
			if ok {
				held[party] = true
				s.reply(conn, "GRANT")
			} else {
				// Woken by Close before the scheduler reached us.
				s.reply(conn, "ERR closing")
				s.drain.Exit()
				return
			}
		case "CONFIRM":
			if !held[party] {
				s.reply(conn, "ERR unexpected confirm")
				break
			}
			delete(held, party)
			s.mu.Lock()
			s.confirms[party] = true
			s.log = append(s.log, "confirm "+party)
			s.cond.Broadcast()
			s.mu.Unlock()
			s.reply(conn, "OK")
		default:
			s.reply(conn, "ERR unknown command")
		}
		s.drain.Exit()
	}
}

// scheduler implements the grant protocol: both requests, grant first,
// confirm, grant second.
func (s *Server) scheduler() {
	s.mu.Lock()
	defer s.mu.Unlock()
	wait := func(pred func() bool) bool {
		for !pred() && !s.closed {
			s.cond.Wait()
		}
		return !s.closed
	}
	if !wait(func() bool { return s.arrived[s.first] != nil && s.arrived[s.other] != nil }) {
		return
	}
	s.granted[s.first] = true
	close(s.arrived[s.first])
	s.log = append(s.log, "grant "+s.first)
	if !wait(func() bool { return s.confirms[s.first] }) {
		return
	}
	s.granted[s.other] = true
	close(s.arrived[s.other])
	s.log = append(s.log, "grant "+s.other)
}

// Client is the client-side API the system under test calls around the
// operation whose timing is being manipulated (§5.1).
type Client struct {
	conn net.Conn
	rd   *bufio.Reader
}

// Dial connects a party to the controller.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("trigger: dial: %w", err)
	}
	return &Client{conn: conn, rd: bufio.NewReader(conn)}, nil
}

// Request asks permission to proceed and blocks until granted.
func (c *Client) Request(party string) error {
	if _, err := fmt.Fprintf(c.conn, "REQUEST %s\n", party); err != nil {
		return err
	}
	line, err := c.rd.ReadString('\n')
	if err != nil {
		return err
	}
	if strings.TrimSpace(line) != "GRANT" {
		return fmt.Errorf("trigger: unexpected response %q", strings.TrimSpace(line))
	}
	return nil
}

// Confirm reports that the operation completed.
func (c *Client) Confirm(party string) error {
	if _, err := fmt.Fprintf(c.conn, "CONFIRM %s\n", party); err != nil {
		return err
	}
	line, err := c.rd.ReadString('\n')
	if err != nil {
		return err
	}
	if strings.TrimSpace(line) != "OK" {
		return fmt.Errorf("trigger: unexpected response %q", strings.TrimSpace(line))
	}
	return nil
}

// Close disconnects the client.
func (c *Client) Close() error { return c.conn.Close() }
