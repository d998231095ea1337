package trigger

// partyState is one party's place in the grant protocol.
type partyState uint8

const (
	partyIdle    partyState = iota // not waiting at its point (never was, or withdrawn)
	partyParked                    // waiting at its point for a grant
	partyHolding                   // granted, confirm pending
	partySettled                   // confirmed, or withdrawn while holding
)

// machine is the message controller's grant protocol (§5.1) with nothing
// of threads or sockets: Controller drives it from the rt scheduler and
// Server from TCP connections. It grants order[0] once every party is
// parked together and each later party once its predecessor settled, so at
// most one party holds an unconfirmed grant.
type machine struct {
	order   []int        // grant sequence over party indices
	state   []partyState // per party
	parked  int          // parties in state partyParked
	granted int          // how many of order have been granted
}

func newMachine(order []int) machine {
	return machine{order: order, state: make([]partyState, len(order))}
}

// park records that party p waits at its point. It refuses a party that is
// already parked or was granted.
func (m *machine) park(p int) bool {
	if m.state[p] != partyIdle {
		return false
	}
	m.state[p] = partyParked
	m.parked++
	return true
}

// confirm settles p's grant. It refuses any party but the holder.
func (m *machine) confirm(p int) bool {
	if m.state[p] != partyHolding {
		return false
	}
	m.state[p] = partySettled
	return true
}

// withdraw takes p out of the exchange: a parked party's request is dropped
// (it may park again), and a holder's grant is settled so the next party
// can go.
func (m *machine) withdraw(p int) {
	switch m.state[p] {
	case partyParked:
		m.state[p] = partyIdle
		m.parked--
	case partyHolding:
		m.state[p] = partySettled
	}
}

// next grants the party whose turn it is, if it may go now.
func (m *machine) next() (int, bool) {
	if m.granted == len(m.order) {
		return 0, false
	}
	p := m.order[m.granted]
	if m.state[p] != partyParked {
		return 0, false
	}
	if m.granted == 0 && m.parked < len(m.order) ||
		m.granted > 0 && m.state[m.order[m.granted-1]] != partySettled {
		return 0, false
	}
	m.state[p] = partyHolding
	m.parked--
	m.granted++
	return p, true
}
