package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Binary trace format (version 1):
//
//	magic "DCTR" | u8 version
//	uvarint len(program) | program bytes
//	uvarint #queues | (str name, uvarint consumers)*
//	string table: uvarint #strings | (uvarint len, bytes)*
//	uvarint #records | record*
//
// Records reference node/obj/queue strings by table index and use varints
// throughout; the measured on-disk size feeds Tables 6 and 8.

const (
	magic   = "DCTR"
	version = 1
)

// writeUvarint writes v byte by byte: a scratch array handed to w.Write
// escapes to the heap, one allocation per varint.
func writeUvarint(w *bufio.Writer, v uint64) {
	for ; v >= 0x80; v >>= 7 {
		w.WriteByte(byte(v) | 0x80)
	}
	w.WriteByte(byte(v))
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

// EncodeTo writes the trace in binary form.
func (t *Trace) EncodeTo(out io.Writer) error {
	w := bufio.NewWriter(out)
	w.WriteString(magic)
	w.WriteByte(version)
	writeString(w, t.Program)

	queues := make([]string, 0, len(t.QueueConsumers))
	for q := range t.QueueConsumers {
		queues = append(queues, q)
	}
	sort.Strings(queues)
	writeUvarint(w, uint64(len(queues)))
	for _, q := range queues {
		writeString(w, q)
		writeUvarint(w, uint64(t.QueueConsumers[q]))
	}

	// Build the string table over node/obj/queue fields.
	index := map[string]uint64{}
	var table []string
	intern := func(s string) uint64 {
		if i, ok := index[s]; ok {
			return i
		}
		i := uint64(len(table))
		index[s] = i
		table = append(table, s)
		return i
	}
	for i := range t.Recs {
		intern(t.Recs[i].Node)
		intern(t.Recs[i].Obj)
		intern(t.Recs[i].Queue)
	}
	writeUvarint(w, uint64(len(table)))
	for _, s := range table {
		writeString(w, s)
	}

	writeUvarint(w, uint64(len(t.Recs)))
	for i := range t.Recs {
		r := &t.Recs[i]
		w.WriteByte(byte(r.Kind))
		w.WriteByte(byte(r.CtxKind))
		writeUvarint(w, r.Seq)
		writeUvarint(w, index[r.Node])
		writeUvarint(w, uint64(uint32(r.Thread)))
		writeUvarint(w, uint64(uint32(r.Ctx)))
		writeUvarint(w, index[r.Obj])
		writeUvarint(w, r.Op)
		writeUvarint(w, r.WriterSeq)
		// StaticID may be -1; bias by 1.
		writeUvarint(w, uint64(uint32(r.StaticID+1)))
		writeUvarint(w, uint64(len(r.Stack)))
		for _, s := range r.Stack {
			writeUvarint(w, uint64(uint32(s)))
		}
		writeUvarint(w, index[r.Queue])
	}
	return w.Flush()
}

// Encode returns the binary encoding of the trace.
func (t *Trace) Encode() []byte {
	var buf bytes.Buffer
	if err := t.EncodeTo(&buf); err != nil {
		// bytes.Buffer writes cannot fail.
		panic(err)
	}
	return buf.Bytes()
}

// countingWriter counts the bytes written to it and keeps none.
type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// EncodedSize returns the binary size in bytes (Tables 6 and 8) without
// materializing the encoding.
func (t *Trace) EncodedSize() int {
	var n countingWriter
	t.EncodeTo(&n) // countingWriter.Write cannot fail
	return int(n)
}

type reader struct {
	r   *bufio.Reader
	err error
}

func (d *reader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = fmt.Errorf("trace: corrupt varint: %w", err)
	}
	return v
}

func (d *reader) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > 1<<24 {
		d.err = fmt.Errorf("trace: unreasonable string length %d", n)
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = fmt.Errorf("trace: truncated string: %w", err)
		return ""
	}
	return string(b)
}

func (d *reader) byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.err = fmt.Errorf("trace: truncated: %w", err)
	}
	return b
}

// Decode parses a binary trace.
func Decode(in io.Reader) (*Trace, error) {
	d := &reader{r: bufio.NewReader(in)}
	var m [4]byte
	if _, err := io.ReadFull(d.r, m[:]); err != nil {
		return nil, fmt.Errorf("trace: missing magic: %w", err)
	}
	if string(m[:]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", m)
	}
	if v := d.byte(); v != version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	t := &Trace{QueueConsumers: map[string]int{}}
	t.Program = d.str()

	nq := d.uvarint()
	for i := uint64(0); i < nq && d.err == nil; i++ {
		q := d.str()
		t.QueueConsumers[q] = int(d.uvarint())
	}

	nstr := d.uvarint()
	if nstr > 1<<24 {
		return nil, fmt.Errorf("trace: unreasonable string table size %d", nstr)
	}
	// Grow incrementally with a capped initial capacity: the header counts
	// are attacker-controlled on the dcatch-serve upload path, so a 4-byte
	// varint must not be able to demand a table-sized allocation up front.
	table := make([]string, 0, min(nstr, 1<<12))
	for i := uint64(0); i < nstr && d.err == nil; i++ {
		table = append(table, d.str())
	}
	lookup := func(i uint64) string {
		if d.err != nil {
			return ""
		}
		if i >= uint64(len(table)) {
			d.err = fmt.Errorf("trace: string index %d out of range", i)
			return ""
		}
		return table[i]
	}

	n := d.uvarint()
	if n > 1<<28 {
		return nil, fmt.Errorf("trace: unreasonable record count %d", n)
	}
	// Callstack interning: real traces repeat a small set of stacks across
	// millions of records (every instrumented site logs the same frames each
	// time it fires). Decoding each record into its own []int32 used to make
	// the stack slices the dominant decode allocation; instead, distinct
	// stacks are canonicalized through a map keyed by their byte image —
	// m[string(key)] compiles to an allocation-free lookup — so repeated
	// stacks share one backing array.
	stacks := map[string][]int32{}
	var scratch []int32
	var key []byte
	// Same capped preallocation as the string table: each record is at
	// least 12 bytes on the wire, so the slice grows against real input,
	// never against a forged count.
	t.Recs = make([]Rec, 0, min(n, 1<<16))
	for i := uint64(0); i < n && d.err == nil; i++ {
		var r Rec
		r.Kind = Kind(d.byte())
		r.CtxKind = CtxKind(d.byte())
		r.Seq = d.uvarint()
		r.Node = lookup(d.uvarint())
		r.Thread = int32(uint32(d.uvarint()))
		r.Ctx = int32(uint32(d.uvarint()))
		r.Obj = lookup(d.uvarint())
		r.Op = d.uvarint()
		r.WriterSeq = d.uvarint()
		r.StaticID = int32(uint32(d.uvarint())) - 1
		ns := d.uvarint()
		if ns > 1<<16 {
			return nil, fmt.Errorf("trace: unreasonable stack depth %d", ns)
		}
		if ns > 0 {
			scratch = scratch[:0]
			key = key[:0]
			for j := uint64(0); j < ns; j++ {
				f := int32(uint32(d.uvarint()))
				scratch = append(scratch, f)
				key = append(key, byte(f), byte(f>>8), byte(f>>16), byte(f>>24))
			}
			st, ok := stacks[string(key)]
			if !ok {
				st = append([]int32(nil), scratch...)
				stacks[string(key)] = st
			}
			r.Stack = st
		}
		r.Queue = lookup(d.uvarint())
		if d.err == nil {
			t.Recs = append(t.Recs, r)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return t, nil
}

// EncodeJSON writes the trace as JSON — the human-auditable export used by
// dcatch-trace; the binary format remains the storage format.
func (t *Trace) EncodeJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Program        string
		QueueConsumers map[string]int
		Records        []jsonRec
	}{t.Program, t.QueueConsumers, jsonRecs(t.Recs)})
}

type jsonRec struct {
	Seq       uint64
	Node      string
	Thread    int32
	Ctx       int32
	CtxKind   string
	Kind      string
	Obj       string `json:",omitempty"`
	Op        uint64 `json:",omitempty"`
	WriterSeq uint64 `json:",omitempty"`
	StaticID  int32
	Stack     []int32 `json:",omitempty"`
	Queue     string  `json:",omitempty"`
}

func jsonRecs(recs []Rec) []jsonRec {
	out := make([]jsonRec, len(recs))
	for i := range recs {
		r := &recs[i]
		out[i] = jsonRec{
			Seq: r.Seq, Node: r.Node, Thread: r.Thread, Ctx: r.Ctx,
			CtxKind: r.CtxKind.String(), Kind: r.Kind.String(),
			Obj: r.Obj, Op: r.Op, WriterSeq: r.WriterSeq,
			StaticID: r.StaticID, Stack: r.Stack, Queue: r.Queue,
		}
	}
	return out
}
