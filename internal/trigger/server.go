package trigger

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dcatch/internal/lifecycle"
)

// Server is the paper's message-controller server (§5.1) as a stand-alone
// TCP service, so the timing-manipulation infrastructure can also be used
// as an independent testing framework: processes under test link the tiny
// client API (Request/Confirm), and the server drives the same grant
// machine as Controller over the line protocol
//
//	client → server: REQUEST <party>   (answered GRANT when its turn comes)
//	client → server: CONFIRM <party>   (answered OK)
//
// A REQUEST from a party outside the order, or from one already parked or
// granted, is answered "ERR unexpected request"; a CONFIRM counts only from
// the connection holding that party's GRANT ("ERR unexpected confirm"
// otherwise). Losing a connection withdraws its parties (logged "withdraw
// <party>"): a parked party may REQUEST again on a new connection, and an
// unconfirmed GRANT is settled so the next party is granted.
//
// Reads and writes carry an ioTimeout deadline, except a parked party's
// wait for its GRANT. Close answers parked parties "ERR closing", drains
// in-flight exchanges through the shared lifecycle.Drainer and returns once
// every connection handler exited.
type Server struct {
	ln    net.Listener
	order []string // party names in grant order

	mu     sync.Mutex
	m      machine
	owner  []net.Conn        // connection holding each party's request or grant
	conns  map[net.Conn]bool // open connections
	log    []string
	closed bool

	ioTimeout atomic.Int64 // time.Duration; 0 disables deadlines
	drain     lifecycle.Drainer
	wg        sync.WaitGroup // accept loop and connection handlers
}

const (
	defaultIOTimeout = 2 * time.Minute // per-command read and per-response write deadline
	drainTimeout     = 5 * time.Second // how long Close waits for in-flight exchanges
)

// ParseOrder splits a grant order "A,B[,C...]" into party names.
func ParseOrder(s string) ([]string, error) {
	order := strings.Split(s, ",")
	return order, checkOrder(order)
}

func checkOrder(order []string) error {
	ok := len(order) >= 2
	for i, p := range order {
		ok = ok && p != "" && !strings.ContainsAny(p, " \t\r\n") && slices.Index(order, p) == i
	}
	if !ok {
		return fmt.Errorf("trigger: order %q needs at least 2 distinct, non-blank parties", strings.Join(order, ","))
	}
	return nil
}

// NewServer starts a controller on addr (e.g. "127.0.0.1:0") that grants
// the named parties in the given order.
func NewServer(addr string, order ...string) (*Server, error) {
	if err := checkOrder(order); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("trigger: listen: %w", err)
	}
	s := &Server{ln: ln, order: slices.Clone(order), owner: make([]net.Conn, len(order)), conns: map[net.Conn]bool{}}
	s.m = newMachine(make([]int, len(order)))
	for i := range s.m.order {
		s.m.order[i] = i // the parties are indexed in grant order
	}
	s.ioTimeout.Store(int64(defaultIOTimeout))
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down gracefully: the listener stops accepting,
// parties parked on an un-granted REQUEST are told "ERR closing", in-flight
// exchanges get drainTimeout to finish, and then every connection is
// closed and its handler waited for. Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for p, c := range s.owner {
		if s.m.state[p] == partyParked {
			s.reply(c, "ERR closing")
		}
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.drain.Close(drainTimeout)
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// ServerStats is a point-in-time snapshot of one controller server, exported
// on the dcatch-trigger debug endpoint (expvar "dcatch_trigger").
type ServerStats struct {
	Addr     string   `json:"addr"`
	Order    []string `json:"order"`
	InFlight int      `json:"in_flight"`
	Closed   bool     `json:"closed"`
	EventLog []string `json:"event_log"` // the events the server observed, in order
}

// Stats snapshots the server's protocol state.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ServerStats{Addr: s.Addr(), Order: slices.Clone(s.order), InFlight: s.drain.InFlight(),
		Closed: s.closed, EventLog: slices.Clone(s.log)}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			conn.Close()
		} else {
			s.conns[conn] = true
			s.wg.Add(1)
			go s.serve(conn)
		}
		s.mu.Unlock()
	}
}

// reply writes one response line, if any, under the write deadline.
func (s *Server) reply(conn net.Conn, line string) {
	if line == "" {
		return
	}
	if t := time.Duration(s.ioTimeout.Load()); t > 0 {
		conn.SetWriteDeadline(time.Now().Add(t))
	}
	fmt.Fprintf(conn, "%s\n", line)
}

// arm sets conn's read deadline for its next command — none while one of
// its parties is parked — and moves that of a Read already blocked on it.
// It decides under mu, so a grant racing it cannot be overridden.
func (s *Server) arm(conn net.Conn) {
	var deadline time.Time
	if t := time.Duration(s.ioTimeout.Load()); t > 0 {
		deadline = time.Now().Add(t)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for p, c := range s.owner {
		if c == conn && s.m.state[p] == partyParked {
			deadline = time.Time{}
		}
	}
	conn.SetReadDeadline(deadline)
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer s.disconnect(conn)
	sc := bufio.NewScanner(conn)
	for {
		s.arm(conn)
		if !sc.Scan() {
			return
		}
		if !s.drain.Enter() {
			s.reply(conn, "ERR closing")
			return
		}
		answer, grantee := s.exchange(conn, strings.Fields(sc.Text()))
		s.reply(conn, answer)
		s.grant(grantee)
		s.drain.Exit()
	}
}

// exchange applies one command line's fields to the machine and returns its
// answer ("" for a parked REQUEST, which its GRANT answers) and the
// connection to GRANT next, if any.
func (s *Server) exchange(conn net.Conn, fields []string) (string, net.Conn) {
	if len(fields) != 2 {
		return "ERR malformed", nil
	}
	cmd, party := fields[0], fields[1]
	p := slices.Index(s.order, party)
	s.mu.Lock()
	defer s.mu.Unlock()
	answer := ""
	switch {
	case s.closed:
		return "ERR closing", nil
	case cmd == "REQUEST" && p >= 0 && s.m.park(p):
		s.owner[p] = conn
	case cmd == "CONFIRM" && p >= 0 && s.owner[p] == conn && s.m.confirm(p):
		s.owner[p], answer = nil, "OK"
	case cmd == "REQUEST" || cmd == "CONFIRM":
		return "ERR unexpected " + strings.ToLower(cmd), nil
	default:
		return "ERR unknown command", nil
	}
	s.log = append(s.log, strings.ToLower(cmd)+" "+party)
	return answer, s.advance()
}

// disconnect withdraws the parties of a lost connection and sends the GRANT
// that unblocks, if any. Once the server is closing, the exploration stands
// as it is.
func (s *Server) disconnect(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	for p, c := range s.owner {
		if c == conn && !s.closed {
			s.owner[p] = nil
			s.m.withdraw(p)
			s.log = append(s.log, "withdraw "+s.order[p])
		}
	}
	grantee := s.advance()
	s.mu.Unlock()
	s.grant(grantee)
}

// advance asks the machine for the next grant; mu must be held. It returns
// the connection to send GRANT to, or nil. Once the server is closed the
// machine no longer moves, so it grants nothing.
func (s *Server) advance() net.Conn {
	p, ok := s.m.next()
	if !ok {
		return nil
	}
	s.log = append(s.log, "grant "+s.order[p])
	return s.owner[p]
}

// grant sends GRANT on conn, if any, and starts the deadline on its CONFIRM.
func (s *Server) grant(conn net.Conn) {
	if conn != nil {
		s.reply(conn, "GRANT")
		s.arm(conn)
	}
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
func (c *Client) Request(party string) error { return c.roundTrip("REQUEST", party, "GRANT") }

// Confirm reports that the operation completed.
func (c *Client) Confirm(party string) error { return c.roundTrip("CONFIRM", party, "OK") }

func (c *Client) roundTrip(cmd, party, want string) error {
	if _, err := fmt.Fprintf(c.conn, "%s %s\n", cmd, party); err != nil {
		return err
	}
	line, err := c.rd.ReadString('\n')
	if err != nil {
		return err
	}
	if got := strings.TrimSpace(line); got != want {
		return fmt.Errorf("trigger: unexpected response %q", got)
	}
	return nil
}

// Close disconnects the client.
func (c *Client) Close() error { return c.conn.Close() }
