package trigger

import (
	"bufio"
	"fmt"
	"net"
	"strings"
)

// Client is one party of the line protocol Server speaks: Request before
// the operation whose timing is manipulated, Confirm after it (§5.1).
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
