package detect

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"dcatch/internal/hb"
)

// Binary WindowScan format (version 1) — the wire shape of one window's
// scanned-but-unmerged candidate map, shipped from a cluster worker back to
// the coordinator that folds it through ChunkMerger.Merge:
//
//	magic "DCWS" | u8 version
//	uvarint #stacks | (uvarint len, bytes)*   // lex-ascending, used stacks only
//	uvarint #objs   | (uvarint len, bytes)*   // lex-ascending
//	uvarint #entries | entry*                 // ascending packed-key order
//
// Each entry is:
//
//	uvarint key          // packStackIDs over the pruned table: hi ≤ lo
//	uvarint obj index
//	uvarint uint32(AStatic+1) | uvarint uint32(BStatic+1)
//	uvarint ARec | uvarint BRec               // window-relative
//	uvarint Dynamic
//
// AStack/BStack are reconstructed from the key halves (the smaller lex-rank
// rides in the high word, exactly packStackIDs' invariant), and the rep sort
// key is rebuilt as packRep(min(ARec,BRec), max(ARec,BRec)) — the scans keep
// pair and rep in lockstep, so neither string pair nor rep travels twice.
// The table is pruned to stacks some surviving pair references; merging a
// pruned window inserts fewer unused strings into the global intern map, and
// because cross-window dedup keys on the stack strings themselves (not their
// IDs), pruning cannot change the merged report.
//
// Decoding is hardened the same way trace.Decode is: counts are
// attacker-controlled on the serve upload path, so preallocation is capped,
// string lengths are bounded, indices are range-checked, and the canonical
// orderings (lex-ascending tables, strictly ascending keys) are enforced —
// a forged or fuzzed payload errors out instead of allocating or merging
// garbage.

// WindowScanVersion is the DCWS format version. Cache keys that store
// encoded scans (internal/scancache) fold it into the hash so a format
// bump invalidates every stale entry instead of tripping the hardened
// decoder at load time.
const WindowScanVersion = scanVersion

const (
	scanMagic   = "DCWS"
	scanVersion = 1

	// maxScanString bounds one stack/object rendering on the wire.
	maxScanString = 1 << 24
	// maxScanCount bounds the table and entry counts.
	maxScanCount = 1 << 24
)

// Candidates returns the number of distinct callstack pairs in the window.
func (ws WindowScan) Candidates() int { return len(ws.fm) }

// ScanGraph scans one window graph into a WindowScan — the window engine's
// entry point (internal/window).
func ScanGraph(g *hb.Graph, opts Options) WindowScan {
	fm, tab := findMap(g, opts)
	return WindowScan{fm: fm, tab: tab}
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

// Encode serializes the window scan. The encoding is canonical: equal scans
// (same candidate map) produce equal bytes regardless of map iteration or
// the order the scan discovered pairs in.
func (ws WindowScan) Encode() []byte {
	// Prune the intern table to stacks some surviving pair references and
	// remap IDs onto the pruned table. Ascending old ID = ascending lex
	// rank, so the pruned table stays lex-sorted and packStackIDs'
	// smaller-in-the-high-word invariant survives the remap.
	used := make(map[int32]bool, 2*len(ws.fm))
	objSet := map[string]bool{}
	for k, fp := range ws.fm {
		used[int32(k>>32)] = true
		used[int32(uint32(k))] = true
		objSet[fp.pair.Obj] = true
	}
	oldIDs := make([]int32, 0, len(used))
	for id := range used {
		oldIDs = append(oldIDs, id)
	}
	sort.Slice(oldIDs, func(a, b int) bool { return oldIDs[a] < oldIDs[b] })
	remap := make(map[int32]uint64, len(oldIDs))
	for newID, oldID := range oldIDs {
		remap[oldID] = uint64(newID)
	}
	objs := make([]string, 0, len(objSet))
	for o := range objSet {
		objs = append(objs, o)
	}
	sort.Strings(objs)
	objIdx := make(map[string]uint64, len(objs))
	for i, o := range objs {
		objIdx[o] = uint64(i)
	}

	type entry struct {
		key uint64
		fp  *foundPair
	}
	entries := make([]entry, 0, len(ws.fm))
	for k, fp := range ws.fm {
		entries = append(entries, entry{remap[int32(k>>32)]<<32 | remap[int32(uint32(k))], fp})
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].key < entries[b].key })

	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	w.WriteString(scanMagic)
	w.WriteByte(scanVersion)
	writeUvarint(w, uint64(len(oldIDs)))
	for _, id := range oldIDs {
		writeString(w, ws.tab.strs[id])
	}
	writeUvarint(w, uint64(len(objs)))
	for _, o := range objs {
		writeString(w, o)
	}
	writeUvarint(w, uint64(len(entries)))
	for _, e := range entries {
		p := &e.fp.pair
		writeUvarint(w, e.key)
		writeUvarint(w, objIdx[p.Obj])
		writeUvarint(w, uint64(uint32(p.AStatic+1)))
		writeUvarint(w, uint64(uint32(p.BStatic+1)))
		writeUvarint(w, uint64(p.ARec))
		writeUvarint(w, uint64(p.BRec))
		writeUvarint(w, uint64(p.Dynamic))
	}
	w.Flush()
	return buf.Bytes()
}

type scanReader struct {
	r   *bufio.Reader
	err error
}

func (d *scanReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = fmt.Errorf("detect: corrupt varint: %w", err)
	}
	return v
}

func (d *scanReader) count(what string) uint64 {
	n := d.uvarint()
	if d.err == nil && n > maxScanCount {
		d.err = fmt.Errorf("detect: unreasonable %s count %d", what, n)
	}
	return n
}

func (d *scanReader) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxScanString {
		d.err = fmt.Errorf("detect: unreasonable string length %d", n)
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = fmt.Errorf("detect: truncated string: %w", err)
		return ""
	}
	return string(b)
}

// readTable reads a length-prefixed, lex-ascending string table with capped
// preallocation.
func (d *scanReader) readTable(what string) []string {
	n := d.count(what)
	table := make([]string, 0, min(n, 1<<12))
	for i := uint64(0); i < n && d.err == nil; i++ {
		s := d.str()
		if d.err == nil && len(table) > 0 && s <= table[len(table)-1] {
			d.err = fmt.Errorf("detect: %s table not strictly ascending", what)
			return nil
		}
		table = append(table, s)
	}
	return table
}

// DecodeWindowScan parses an encoded window scan. The result is ready for
// ChunkMerger.Merge; a payload that is truncated, forges counts or indices,
// or violates the canonical ordering yields an error, never a panic or an
// unbounded allocation.
func DecodeWindowScan(data []byte) (WindowScan, error) {
	d := &scanReader{r: bufio.NewReader(bytes.NewReader(data))}
	var m [4]byte
	if _, err := io.ReadFull(d.r, m[:]); err != nil {
		return WindowScan{}, fmt.Errorf("detect: missing scan magic: %w", err)
	}
	if string(m[:]) != scanMagic {
		return WindowScan{}, fmt.Errorf("detect: bad scan magic %q", m)
	}
	v, err := d.r.ReadByte()
	if err != nil {
		return WindowScan{}, fmt.Errorf("detect: truncated scan header: %w", err)
	}
	if v != scanVersion {
		return WindowScan{}, fmt.Errorf("detect: unsupported scan version %d", v)
	}

	stacks := d.readTable("stack")
	objs := d.readTable("object")
	n := d.count("entry")
	if d.err != nil {
		return WindowScan{}, d.err
	}
	fm := make(map[uint64]*foundPair, min(n, 1<<12))
	var slab pairSlab
	prevKey, first := uint64(0), true
	for i := uint64(0); i < n && d.err == nil; i++ {
		key := d.uvarint()
		oi := d.uvarint()
		aStatic := d.uvarint()
		bStatic := d.uvarint()
		aRec := d.uvarint()
		bRec := d.uvarint()
		dyn := d.uvarint()
		if d.err != nil {
			break
		}
		if !first && key <= prevKey {
			return WindowScan{}, fmt.Errorf("detect: scan entries not strictly ascending")
		}
		prevKey, first = key, false
		hi, lo := key>>32, key&0xffffffff
		if hi > lo || lo >= uint64(len(stacks)) {
			return WindowScan{}, fmt.Errorf("detect: stack id pair %d/%d out of range", hi, lo)
		}
		if oi >= uint64(len(objs)) {
			return WindowScan{}, fmt.Errorf("detect: object index %d out of range", oi)
		}
		if aStatic > math.MaxUint32 || bStatic > math.MaxUint32 {
			return WindowScan{}, fmt.Errorf("detect: static id out of range")
		}
		if aRec >= 1<<31 || bRec >= 1<<31 || dyn == 0 || dyn >= 1<<31 {
			return WindowScan{}, fmt.Errorf("detect: record index or dynamic count out of range")
		}
		fp := slab.alloc()
		fp.pair = Pair{
			Obj:     objs[oi],
			AStatic: int32(uint32(aStatic)) - 1,
			BStatic: int32(uint32(bStatic)) - 1,
			AStack:  stacks[hi],
			BStack:  stacks[lo],
			ARec:    int(aRec),
			BRec:    int(bRec),
			Dynamic: int(dyn),
		}
		fp.rep = packRep(min(int(aRec), int(bRec)), max(int(aRec), int(bRec)))
		fm[key] = fp
	}
	if d.err != nil {
		return WindowScan{}, d.err
	}
	if _, err := d.r.ReadByte(); err != io.EOF {
		return WindowScan{}, fmt.Errorf("detect: trailing bytes after scan entries")
	}
	return WindowScan{fm: fm, tab: &internTable{strs: stacks}}, nil
}
