package scancache

import (
	"container/list"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dcatch/internal/obs"
)

// Persistent cache file format (version 1):
//
//	magic "DCSC" | u8 version | u32le crc32c over the rest of the file
//	uvarint memBytes | uvarint records | uvarint len(backend) | backend
//	payload — canonical DCWS bytes, to end of file
//
// The checksum makes disk loads both cheap and airtight: verifying it
// costs microseconds where a structural DCWS re-decode costs milliseconds,
// and it rejects corruption the structural decoder cannot see (a flipped
// byte inside an interned string decodes fine but changes the report). Bit
// rot, truncation, or a hostile edit fails the checksum, the file is
// deleted, and the window is simply rescanned.

const (
	diskMagic   = "DCSC"
	diskVersion = 1

	// maxBackendLen bounds the backend label in an envelope; real labels
	// are "dense"/"chain".
	maxBackendLen = 32
)

// crcTable is Castagnoli, hardware-accelerated on every platform we run on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// headerLen is the fixed prefix before the checksummed region.
const headerLen = len(diskMagic) + 1 + 4

// encodeEntry renders the on-disk envelope for ent.
func encodeEntry(ent Entry) []byte {
	buf := make([]byte, 0, headerLen+3*binary.MaxVarintLen64+len(ent.Backend)+len(ent.Payload))
	buf = append(buf, diskMagic...)
	buf = append(buf, diskVersion)
	buf = append(buf, 0, 0, 0, 0) // crc placeholder
	buf = binary.AppendUvarint(buf, uint64(ent.MemBytes))
	buf = binary.AppendUvarint(buf, uint64(ent.Records))
	buf = binary.AppendUvarint(buf, uint64(len(ent.Backend)))
	buf = append(buf, ent.Backend...)
	buf = append(buf, ent.Payload...)
	binary.LittleEndian.PutUint32(buf[headerLen-4:], crc32.Checksum(buf[headerLen:], crcTable))
	return buf
}

// decodeEnvelope parses an on-disk envelope and verifies its checksum. It
// does not decode the DCWS payload — the checksum already guarantees the
// bytes are exactly what encodeEntry wrote, and Put never stores an empty
// or undecodable payload.
func decodeEnvelope(data []byte) (Entry, error) {
	if len(data) < headerLen {
		return Entry{}, fmt.Errorf("scancache: short envelope (%d bytes)", len(data))
	}
	if string(data[:len(diskMagic)]) != diskMagic {
		return Entry{}, fmt.Errorf("scancache: bad magic %q", data[:len(diskMagic)])
	}
	if v := data[len(diskMagic)]; v != diskVersion {
		return Entry{}, fmt.Errorf("scancache: unsupported version %d", v)
	}
	want := binary.LittleEndian.Uint32(data[headerLen-4 : headerLen])
	if got := crc32.Checksum(data[headerLen:], crcTable); got != want {
		return Entry{}, fmt.Errorf("scancache: checksum mismatch (%08x != %08x)", got, want)
	}
	rest := data[headerLen:]
	next := func(what string) (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("scancache: bad %s varint", what)
		}
		rest = rest[n:]
		return v, nil
	}
	mem, err := next("memBytes")
	if err != nil {
		return Entry{}, err
	}
	if mem > 1<<62 {
		return Entry{}, fmt.Errorf("scancache: absurd memBytes %d", mem)
	}
	recs, err := next("records")
	if err != nil {
		return Entry{}, err
	}
	if recs > 1<<40 {
		return Entry{}, fmt.Errorf("scancache: absurd record count %d", recs)
	}
	blen, err := next("backend length")
	if err != nil {
		return Entry{}, err
	}
	if blen > maxBackendLen || blen > uint64(len(rest)) {
		return Entry{}, fmt.Errorf("scancache: bad backend length %d", blen)
	}
	backend := string(rest[:blen])
	payload := rest[blen:]
	if len(payload) == 0 {
		return Entry{}, fmt.Errorf("scancache: empty payload")
	}
	return Entry{
		Payload:  append([]byte(nil), payload...),
		Backend:  backend,
		MemBytes: int64(mem),
		Records:  int(recs),
	}, nil
}

// diskTier is the persistent spill: one file per entry under
// dir/<hex[:2]>/<hex>, LRU-evicted by total file size. File I/O runs under
// the tier mutex — entries are a few KB and a window scan costs
// milliseconds, so serializing loads is simpler than per-key locking and
// still far off the critical path.
type diskTier struct {
	dir      string
	maxBytes int64
	rec      *obs.Recorder

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[Key]*list.Element
	bytes int64
}

type diskEntry struct {
	key  Key
	size int64
}

func openDiskTier(dir string, maxBytes int64, rec *obs.Recorder) (*diskTier, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultDiskMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("scancache: create dir: %w", err)
	}
	d := &diskTier{
		dir:      dir,
		maxBytes: maxBytes,
		rec:      rec,
		ll:       list.New(),
		items:    make(map[Key]*list.Element),
	}
	if err := d.index(); err != nil {
		return nil, err
	}
	return d, nil
}

// index rebuilds the LRU from the directory: surviving files ordered by
// mtime (a best-effort recency signal across restarts), stray temp files
// swept, budget re-enforced.
func (d *diskTier) index() error {
	type found struct {
		de diskEntry
		at time.Time
	}
	var all []found
	shards, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("scancache: index: %w", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(d.dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			path := filepath.Join(d.dir, sh.Name(), f.Name())
			raw, err := hex.DecodeString(f.Name())
			if err != nil || len(raw) != len(Key{}) {
				os.Remove(path) // stray temp or foreign file
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			var k Key
			copy(k[:], raw)
			all = append(all, found{diskEntry{key: k, size: info.Size()}, info.ModTime()})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
	for _, f := range all { // oldest pushed first ends up at the back
		d.items[f.de.key] = d.ll.PushFront(&diskEntry{key: f.de.key, size: f.de.size})
		d.bytes += f.de.size
	}
	d.evictLocked()
	return nil
}

func (d *diskTier) path(key Key) string {
	hexKey := key.String()
	return filepath.Join(d.dir, hexKey[:2], hexKey)
}

func (d *diskTier) get(key Key) (Entry, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	el, ok := d.items[key]
	if !ok {
		return Entry{}, false
	}
	data, err := os.ReadFile(d.path(key))
	if err == nil {
		var ent Entry
		if ent, err = decodeEnvelope(data); err == nil {
			d.ll.MoveToFront(el)
			return ent, true
		}
	}
	// Unreadable or corrupt: drop the file and report a miss. The window
	// gets rescanned and the entry rewritten.
	d.removeLocked(el)
	d.rec.Count("scancache.corrupt", 1)
	return Entry{}, false
}

func (d *diskTier) put(key Key, ent Entry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if el, ok := d.items[key]; ok {
		d.ll.MoveToFront(el) // content-addressed: existing bytes are the bytes
		return
	}
	data := encodeEntry(ent)
	if int64(len(data)) > d.maxBytes {
		return
	}
	final := d.path(key)
	shard := filepath.Dir(final)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return // disk trouble must never fail the analysis
	}
	tmp, err := os.CreateTemp(shard, "put-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return
	}
	d.items[key] = d.ll.PushFront(&diskEntry{key: key, size: int64(len(data))})
	d.bytes += int64(len(data))
	d.evictLocked()
}

// discard removes key's entry and file if present.
func (d *diskTier) discard(key Key) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if el, ok := d.items[key]; ok {
		d.removeLocked(el)
	}
}

func (d *diskTier) removeLocked(el *list.Element) {
	de := el.Value.(*diskEntry)
	d.ll.Remove(el)
	delete(d.items, de.key)
	d.bytes -= de.size
	os.Remove(d.path(de.key))
}

func (d *diskTier) evictLocked() {
	var evicted int64
	for d.bytes > d.maxBytes {
		back := d.ll.Back()
		if back == nil {
			break
		}
		d.removeLocked(back)
		evicted++
	}
	if evicted > 0 {
		d.rec.Count("scancache.disk_evictions", evicted)
	}
}

func (d *diskTier) bytesUsed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}
