package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Decode parses a binary trace. It reads the input to its end and feeds the
// bytes to a StreamDecoder in one piece, so the format has a single parser
// and the record slice is reserved once against the whole input.
func Decode(in io.Reader) (*Trace, error) {
	var buf bytes.Buffer
	if l, ok := in.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead) // in-memory reader: one exact allocation
	}
	if _, err := buf.ReadFrom(in); err != nil {
		return nil, fmt.Errorf("trace: reading input: %w", err)
	}
	d := NewStreamDecoder()
	if _, err := d.Feed(buf.Bytes()); err != nil {
		return nil, err
	}
	return d.Finish()
}

// StreamDecoder is the format's parser in push form: callers feed byte
// segments as they arrive (a growing file tail, an HTTP request body read
// chunk by chunk) and complete records become visible immediately, without
// waiting for the writer to finish. A segment boundary may fall anywhere —
// mid-varint, mid-string, mid-record — and decoding resumes exactly where it
// stopped: the decoder retains the unconsumed tail and re-attempts the
// interrupted unit once more bytes land.
//
// Header counts are attacker-controlled on the dcatch-serve upload path, so
// nothing is allocated against a declared count alone: the string table
// starts small and grows against real input, and record capacity is reserved
// from the bytes in hand (see reserve). Bytes after the declared record count
// are ignored and not retained.
type StreamDecoder struct {
	buf []byte // unconsumed input tail: at most one partial unit

	phase int
	err   error

	t     *Trace
	table []string

	nq, nstr, nrec uint64 // declared counts (valid per phase)
	done           uint64 // queue or string entries completed in the current header phase

	// Callstack interning: real traces repeat a small set of stacks across
	// millions of records (every instrumented site logs the same frames each
	// time it fires), so distinct stacks share one backing array, keyed by
	// their wire bytes — m[string(b)] compiles to an allocation-free lookup.
	stacks map[string][]int32

	consumed int64 // total bytes consumed off the wire
}

// Decoder phases, in wire order.
const (
	phaseHeader  = iota // magic + version + program
	phaseQueues         // queue count, then (name, consumers)*
	phaseStrings        // string-table count, then entries
	phaseCount          // record count
	phaseRecords        // records
	phaseDone
)

// minRecBytes is the smallest wire record: kind and context-kind bytes plus
// ten one-byte varints.
const minRecBytes = 12

// NewStreamDecoder returns a decoder awaiting the first bytes of a binary
// trace.
func NewStreamDecoder() *StreamDecoder {
	return &StreamDecoder{
		t:      &Trace{QueueConsumers: map[string]int{}},
		stacks: map[string][]int32{},
	}
}

// errShort is the internal "need more bytes" signal; it never escapes Feed.
var errShort = errors.New("trace: stream underflow")

// uvarint decodes the varint at b[i:] and returns its value and the offset
// past it. A failure returns an offset beyond len(b) — len(b)+1 when the
// varint is cut short, len(b)+2 when it overflows 64 bits — and a failed
// offset passes through later calls unchanged, so a run of fields is read
// back to back and checked once (varintErr).
func uvarint(b []byte, i int) (uint64, int) {
	if i < len(b) && b[i] < 0x80 {
		return uint64(b[i]), i + 1
	}
	return uvarintSlow(b, i)
}

func uvarintSlow(b []byte, i int) (uint64, int) {
	if i > len(b) {
		return 0, i
	}
	v, n := binary.Uvarint(b[i:])
	switch {
	case n > 0:
		return v, i + n
	case n < 0:
		return 0, len(b) + 2
	}
	return 0, len(b) + 1
}

// varintErr names the failure behind an offset uvarint returned past len(b).
func varintErr(b []byte, i int) error {
	if i == len(b)+1 {
		return errShort
	}
	return errors.New("trace: corrupt varint")
}

// cursor is a speculative parse position for the header units: a unit parses
// through it and commits only when complete, so an underflow mid-unit leaves
// the decoder's offset untouched for a clean retry.
type cursor struct {
	b []byte
	i int
}

func (c *cursor) uvarint() (uint64, error) {
	v, i := uvarint(c.b, c.i)
	if i > len(c.b) {
		return 0, varintErr(c.b, i)
	}
	c.i = i
	return v, nil
}

func (c *cursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("trace: unreasonable string length %d", n)
	}
	if uint64(len(c.b)-c.i) < n {
		return "", errShort
	}
	s := string(c.b[c.i : c.i+int(n)])
	c.i += int(n)
	return s, nil
}

// Feed decodes every unit that p completes, together with the tail retained
// from earlier calls, and returns the number of newly completed records. A
// nil error with a short count just means the stream is mid-unit; a non-nil
// error is fatal and sticky (the input violates the format). Feed does not
// retain p.
func (d *StreamDecoder) Feed(p []byte) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	if d.phase == phaseDone {
		return 0, nil // trailing bytes: dropped, not buffered
	}
	b := p
	if len(d.buf) > 0 {
		d.buf = append(d.buf, p...)
		b = d.buf
	}
	before := len(d.t.Recs)
	i, err := d.parse(b)
	d.consumed += int64(i)
	d.err = err
	switch {
	case err != nil || d.phase == phaseDone:
		d.buf = nil
	case i > 0 || len(d.buf) == 0:
		// Keep only the partial unit, so the retained tail does not grow
		// with the stream (when b is d.buf this moves it to the front).
		d.buf = append(d.buf[:0], b[i:]...)
	}
	return len(d.t.Recs) - before, err
}

// parse decodes the units b holds from its start and returns the offset past
// the last complete one; running out of bytes mid-unit is not an error.
func (d *StreamDecoder) parse(b []byte) (i int, err error) {
	for d.phase < phaseRecords && err == nil {
		c := cursor{b: b, i: i}
		if err = d.step(&c); err == nil {
			i = c.i
		}
	}
	if err == nil {
		i, err = d.records(b, i)
	}
	if err == errShort {
		err = nil
	}
	return i, err
}

// step parses one header unit at the current phase through c. On success the
// phase and per-phase counters advance; errShort means the unit is
// incomplete.
func (d *StreamDecoder) step(c *cursor) error {
	switch d.phase {
	case phaseHeader:
		if len(c.b)-c.i < len(magic)+1 {
			return errShort
		}
		if string(c.b[c.i:c.i+4]) != magic {
			return fmt.Errorf("trace: bad magic %q", c.b[c.i:c.i+4])
		}
		if v := c.b[c.i+4]; v != version {
			return fmt.Errorf("trace: unsupported version %d", v)
		}
		c.i += 5
		prog, err := c.str()
		if err != nil {
			return err
		}
		d.t.Program = prog
		d.phase = phaseQueues
		d.done = 0
		d.nq = ^uint64(0)
	case phaseQueues:
		if d.nq == ^uint64(0) {
			n, err := c.uvarint()
			if err != nil {
				return err
			}
			d.nq = n
			return nil
		}
		if d.done >= d.nq {
			d.phase = phaseStrings
			d.done = 0
			d.nstr = ^uint64(0)
			return nil
		}
		q, err := c.str()
		if err != nil {
			return err
		}
		consumers, err := c.uvarint()
		if err != nil {
			return err
		}
		d.t.QueueConsumers[q] = int(consumers)
		d.done++
	case phaseStrings:
		if d.nstr == ^uint64(0) {
			n, err := c.uvarint()
			if err != nil {
				return err
			}
			if n > 1<<24 {
				return fmt.Errorf("trace: unreasonable string table size %d", n)
			}
			d.nstr = n
			d.table = make([]string, 0, min(n, 1<<12))
			return nil
		}
		if d.done >= d.nstr {
			d.phase = phaseCount
			return nil
		}
		s, err := c.str()
		if err != nil {
			return err
		}
		d.table = append(d.table, s)
		d.done++
	case phaseCount:
		n, err := c.uvarint()
		if err != nil {
			return err
		}
		if n > 1<<28 {
			return fmt.Errorf("trace: unreasonable record count %d", n)
		}
		d.nrec = n
		d.t.Recs = []Rec{}
		d.phase = phaseRecords
	}
	return nil
}

// records decodes the whole records in b[i:] and returns the offset past the
// last one (errShort, which parse drops, when the next is cut mid-varint).
// Each record's varints are read back to back through uvarint's
// pass-through failure offset and checked once, so a record cut anywhere
// leaves the offset at its first byte for the next Feed.
func (d *StreamDecoder) records(b []byte, i int) (int, error) {
	recs, table, nrec := d.t.Recs, d.table, int(d.nrec)
	var err error
	for len(recs) < nrec && len(b)-i >= minRecBytes {
		var seq, node, thread, ctx, obj, op, wseq, static, ns, queue uint64
		j := i + 2
		seq, j = uvarint(b, j)
		node, j = uvarint(b, j)
		thread, j = uvarint(b, j)
		ctx, j = uvarint(b, j)
		obj, j = uvarint(b, j)
		op, j = uvarint(b, j)
		wseq, j = uvarint(b, j)
		static, j = uvarint(b, j)
		ns, j = uvarint(b, j)
		if ns > 1<<16 {
			err = fmt.Errorf("trace: unreasonable stack depth %d", ns)
			break
		}
		frames := j
		for k := ns; k > 0 && j <= len(b); k-- {
			_, j = uvarint(b, j)
		}
		framesEnd := j
		queue, j = uvarint(b, j)
		if j > len(b) {
			err = varintErr(b, j)
			break
		}
		if top := max(node, obj, queue); top >= uint64(len(table)) {
			err = fmt.Errorf("trace: string index %d out of range", top)
			break
		}
		var stack []int32
		if ns > 0 {
			var ok bool
			if stack, ok = d.stacks[string(b[frames:framesEnd])]; !ok {
				stack = make([]int32, ns)
				for k, p := 0, frames; k < len(stack); k++ {
					var f uint64
					f, p = uvarint(b, p)
					stack[k] = int32(uint32(f))
				}
				d.stacks[string(b[frames:framesEnd])] = stack
			}
		}
		if len(recs) == cap(recs) {
			recs = reserve(recs, nrec, len(b)-i)
		}
		// Every field is stored in place: a Rec literal would be built on the
		// stack and copied.
		recs = recs[:len(recs)+1]
		r := &recs[len(recs)-1]
		r.Kind, r.CtxKind = Kind(b[i]), CtxKind(b[i+1])
		r.Seq, r.Op, r.WriterSeq = seq, op, wseq
		r.Node, r.Obj, r.Queue = table[node], table[obj], table[queue]
		r.Thread, r.Ctx = int32(uint32(thread)), int32(uint32(ctx))
		r.StaticID = int32(uint32(static)) - 1
		r.Stack = stack
		i = j
	}
	d.t.Recs = recs
	if len(recs) == nrec {
		d.phase = phaseDone
	}
	return i, err
}

// reserve returns recs with room for more records, sized from the input in
// hand rather than from the declared count: the remaining bytes (the next
// record included) cannot hold more than remaining/minRecBytes records, so
// the slice grows by that or by doubling, whichever is more. Once that covers
// half of what is still declared it takes all of it — a last partial regrowth
// would copy the whole slice again. A one-shot decode therefore allocates
// exactly once, and whatever count a header forges, capacity stays within
// three times the records the input so far could encode. Earlier backing
// arrays are left intact for windows taken of them.
func reserve(recs []Rec, nrec, remaining int) []Rec {
	n := max(remaining/minRecBytes, len(recs))
	if left := nrec - len(recs); left <= 2*n {
		n = left
	}
	grown := make([]Rec, len(recs), len(recs)+n)
	copy(grown, recs)
	return grown
}

// Trace returns the trace decoded so far. Header fields (Program,
// QueueConsumers) are complete once HeaderDone reports true; Recs grows as
// records complete. The slice is live — callers must not retain it across
// Feed calls that may append.
func (d *StreamDecoder) Trace() *Trace { return d.t }

// Expected returns the declared record count; ok is false until the header
// (through the count field) has been decoded.
func (d *StreamDecoder) Expected() (n uint64, ok bool) {
	if d.phase < phaseRecords {
		return 0, false
	}
	return d.nrec, true
}

// HeaderDone reports whether the header — program, queues, string table and
// record count — has been fully decoded.
func (d *StreamDecoder) HeaderDone() bool { return d.phase >= phaseRecords }

// Done reports whether every declared record has been decoded.
func (d *StreamDecoder) Done() bool { return d.phase == phaseDone }

// Finish validates completion and returns the decoded trace: an error means
// the stream ended mid-header or before the declared record count.
func (d *StreamDecoder) Finish() (*Trace, error) {
	if d.err != nil {
		return nil, d.err
	}
	if !d.Done() {
		if !d.HeaderDone() {
			return nil, fmt.Errorf("trace: truncated stream: header incomplete")
		}
		return nil, fmt.Errorf("trace: truncated stream: %d of %d records", len(d.t.Recs), d.nrec)
	}
	return d.t, nil
}
