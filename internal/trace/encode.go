package trace

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"math/bits"
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

func appendUvarint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	return binary.AppendUvarint(b, v)
}

func appendString(b []byte, s string) []byte {
	return append(appendUvarint(b, uint64(len(s))), s...)
}

// uvarintLen is the number of bytes appendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// interner builds the string table over the records' node/obj/queue fields
// in first-use order. A small direct-mapped cache sits in front of the index
// map: traces draw these fields from a modest working set (nodes, queues, hot
// objects), and a hit costs a short hash and a string compare, not a map
// probe.
type interner struct {
	index map[string]uint64
	table []string
	cache [512]struct {
		s string
		n uint64 // table index + 1; 0 marks an empty slot
	}
}

func (in *interner) id(s string) uint64 {
	// FNV-1a over the length and the last eight bytes: names differ at the
	// tail, and the compare below makes a collision merely a miss.
	h := uint32(len(s))
	for i := max(0, len(s)-8); i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	c := &in.cache[h%uint32(len(in.cache))]
	if c.n != 0 && c.s == s {
		return c.n - 1
	}
	i, ok := in.index[s]
	if !ok {
		i = uint64(len(in.table))
		in.index[s] = i
		in.table = append(in.table, s)
	}
	c.s, c.n = s, i+1
	return i
}

// encode returns the encoding in two parts, header (through the record
// count) and record body: the string table precedes the records on the wire
// but is only known once they have all been interned, so the records are
// encoded first, in the same pass that builds the table.
func (t *Trace) encode() (head, body []byte) {
	in := &interner{index: map[string]uint64{}}
	body = make([]byte, 0, 16*len(t.Recs))
	for i := range t.Recs {
		r := &t.Recs[i]
		body = append(body, byte(r.Kind), byte(r.CtxKind))
		body = appendUvarint(body, r.Seq)
		body = appendUvarint(body, in.id(r.Node))
		body = appendUvarint(body, uint64(uint32(r.Thread)))
		body = appendUvarint(body, uint64(uint32(r.Ctx)))
		body = appendUvarint(body, in.id(r.Obj))
		body = appendUvarint(body, r.Op)
		body = appendUvarint(body, r.WriterSeq)
		// StaticID may be -1; bias by 1.
		body = appendUvarint(body, uint64(uint32(r.StaticID+1)))
		body = appendUvarint(body, uint64(len(r.Stack)))
		for _, s := range r.Stack {
			body = appendUvarint(body, uint64(uint32(s)))
		}
		body = appendUvarint(body, in.id(r.Queue))
	}

	head = append(head, magic...)
	head = append(head, version)
	head = appendString(head, t.Program)
	queues := make([]string, 0, len(t.QueueConsumers))
	for q := range t.QueueConsumers {
		queues = append(queues, q)
	}
	sort.Strings(queues)
	head = appendUvarint(head, uint64(len(queues)))
	for _, q := range queues {
		head = appendString(head, q)
		head = appendUvarint(head, uint64(t.QueueConsumers[q]))
	}
	head = appendUvarint(head, uint64(len(in.table)))
	for _, s := range in.table {
		head = appendString(head, s)
	}
	head = appendUvarint(head, uint64(len(t.Recs)))
	return head, body
}

// EncodeTo writes the trace in binary form: the header, then the record body
// it had to build first (see encode).
func (t *Trace) EncodeTo(out io.Writer) error {
	head, body := t.encode()
	if _, err := out.Write(head); err != nil {
		return err
	}
	_, err := out.Write(body)
	return err
}

// Encode returns the binary encoding of the trace.
func (t *Trace) Encode() []byte {
	head, body := t.encode()
	return append(head, body...)
}

// EncodedSize returns the binary size in bytes (Tables 6 and 8) without
// materializing the encoding: it interns like encode and sums the length of
// every field encode would write.
func (t *Trace) EncodedSize() int {
	n := len(magic) + 1 + stringLen(t.Program) + uvarintLen(uint64(len(t.QueueConsumers)))
	for q, consumers := range t.QueueConsumers {
		n += stringLen(q) + uvarintLen(uint64(consumers))
	}
	in := &interner{index: map[string]uint64{}}
	n += uvarintLen(uint64(len(t.Recs)))
	for i := range t.Recs {
		r := &t.Recs[i]
		n += 2 + uvarintLen(r.Seq) + uvarintLen(in.id(r.Node)) +
			uvarintLen(uint64(uint32(r.Thread))) + uvarintLen(uint64(uint32(r.Ctx))) +
			uvarintLen(in.id(r.Obj)) + uvarintLen(r.Op) + uvarintLen(r.WriterSeq) +
			uvarintLen(uint64(uint32(r.StaticID+1))) + uvarintLen(uint64(len(r.Stack))) +
			uvarintLen(in.id(r.Queue))
		for _, s := range r.Stack {
			n += uvarintLen(uint64(uint32(s)))
		}
	}
	n += uvarintLen(uint64(len(in.table)))
	for _, s := range in.table {
		n += stringLen(s)
	}
	return n
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
