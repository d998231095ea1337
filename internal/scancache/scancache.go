// Package scancache memoizes per-window detection scans across uploads,
// nodes, and reruns.
//
// The unit of caching is one window's detect.WindowScan — the
// scanned-but-unmerged candidate map that batch chunking, the streaming
// eager mode, and the cluster RPC all already produce and fold through
// ChunkMerger.Merge. A window scan is a pure function of the window's
// record content and the wire-expressible analysis options (reach backend,
// group cap, memory budget); observability never changes results. So the
// cache key is
//
//	sha256("dcws|" version "|" reach "|" maxGroup "|" memBudget "|" window-records)
//
// where the records are hashed field by field (Spec.KeyTrace) rather than
// through trace.Trace.Encode — the same injectivity without the string
// table, so probing a 50k-record window costs single-digit milliseconds.
// The value is the canonical DCWS encoding of the scan — the same
// versioned binary format the cluster RPC ships, reused verbatim so a
// cached reply is indistinguishable from a freshly computed one by
// construction. Values are stored and returned as bytes, never as live
// WindowScan objects: ChunkMerger.Merge rebases record indices in place,
// so every consumer must decode its own copy.
//
// Options outside the wire-expressible subset (HB rule ablations,
// LoopReads hints, report suppression) change scan results without being
// part of the key, so SpecFor refuses them and callers bypass the cache —
// exactly mirroring what cluster.NewCoordinator rejects for remote
// execution.
//
// The in-memory tier is a byte-bounded LRU; an optional disk tier (Dir)
// spills entries content-addressed under sharded directories with atomic
// write+rename and its own size budget. Every disk load verifies the
// envelope's integrity checksum, so a corrupt or truncated cache file —
// even a single flipped payload byte the structural DCWS decoder would
// wave through — degrades to a miss, never a wrong report. Consumers that
// decode a payload and fail call Discard as a second line of defense.
package scancache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/trace"
)

// Key is the content address of one window scan.
type Key [32]byte

// String renders the key as lowercase hex (used for disk file names).
func (k Key) String() string { return fmt.Sprintf("%x", k[:]) }

// Spec is the wire-expressible option subset that, together with the
// window's record bytes, determines a scan result. It deliberately matches
// cluster.ScanRequest field for field: the coordinator and a worker that
// derive Specs from their own typed configs land on identical keys.
type Spec struct {
	Reach     string // hb.Backend.String(): "dense" | "chain" | "auto"
	MaxGroup  int
	MemBudget int64
}

// SpecFor derives the cache spec from typed analysis options. ok is false
// when the options carry state the key cannot express — HB ablations,
// LoopReads hints, or pull-report suppression — in which case the caller
// must scan uncached.
func SpecFor(hcfg hb.Config, dopts detect.Options) (Spec, bool) {
	if hcfg.DisableEvent || hcfg.DisableRPC || hcfg.DisableSocket || hcfg.DisablePush ||
		len(hcfg.LoopReads) > 0 || dopts.SuppressPull {
		return Spec{}, false
	}
	return Spec{
		Reach:     hcfg.ReachBackend.String(),
		MaxGroup:  dopts.MaxGroup,
		MemBudget: hcfg.MemBudget,
	}, true
}

// KeyTrace hashes the spec, the DCWS format version, and the window's
// record content into the cache key. Records are hashed field by field with
// fixed-width little-endian encoding and length-prefixed strings — the same
// injectivity as hashing trace.Trace.Encode output, without building the
// string-intern table, so a 50k-record window keys in single-digit
// milliseconds instead of tens. Every field the HB build or the scan can
// observe is included: Program and the (sorted) queue-consumer table shape
// event rules, and every Rec field shapes edges or candidate identity.
// Encode∘Decode preserves all hashed fields, so a worker keying the decoded
// request body lands on the coordinator's key.
func (s Spec) KeyTrace(sub *trace.Trace) Key {
	h := sha256.New()
	fmt.Fprintf(h, "dcws|%d|%s|%d|%d|", detect.WindowScanVersion, s.Reach, s.MaxGroup, s.MemBudget)
	buf := make([]byte, 0, 1<<16)
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	str := func(s string) {
		u64(uint64(len(s)))
		buf = append(buf, s...)
	}
	str(sub.Program)
	qs := make([]string, 0, len(sub.QueueConsumers))
	for q := range sub.QueueConsumers {
		qs = append(qs, q)
	}
	sort.Strings(qs)
	u64(uint64(len(qs)))
	for _, q := range qs {
		str(q)
		u64(uint64(uint32(sub.QueueConsumers[q])))
	}
	u64(uint64(len(sub.Recs)))
	for i := range sub.Recs {
		r := &sub.Recs[i]
		u64(uint64(r.Kind)<<32 | uint64(r.CtxKind))
		u64(r.Seq)
		str(r.Node)
		u64(uint64(uint32(r.Thread))<<32 | uint64(uint32(r.Ctx)))
		str(r.Obj)
		u64(r.Op)
		u64(r.WriterSeq)
		u64(uint64(uint32(r.StaticID)))
		u64(uint64(len(r.Stack)))
		for _, s := range r.Stack {
			u64(uint64(uint32(s)))
		}
		str(r.Queue)
		if len(buf) > 1<<16-512 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	var k Key
	h.Sum(k[:0])
	return k
}

// Entry is one cached window scan: the canonical DCWS payload plus the
// build metadata a hit must reproduce (peak-memory stats and the resolved
// backend label reported alongside reports, and the worker's record-count
// reply header).
type Entry struct {
	Payload  []byte // canonical detect.WindowScan encoding
	Backend  string // resolved hb backend of the window build
	MemBytes int64  // reachability-closure footprint of the window build
	Records  int    // records in the window
}

func (e Entry) cost() int64 {
	return int64(len(e.Payload)) + int64(len(e.Backend)) + entryOverhead
}

// entryOverhead approximates per-entry bookkeeping (key copy, list node,
// map slot) so tiny entries still consume budget.
const entryOverhead = 128

// Config sizes a Cache.
type Config struct {
	// MaxBytes bounds the in-memory tier (payload bytes + per-entry
	// overhead). 0 means DefaultMaxBytes.
	MaxBytes int64
	// Dir, when non-empty, enables the persistent tier: entries spill to
	// Dir/<hex[:2]>/<hex> with atomic write+rename. The directory is
	// created if missing and re-indexed on open.
	Dir string
	// DiskMaxBytes bounds the persistent tier by file size. 0 means
	// DefaultDiskMaxBytes. Ignored when Dir is empty.
	DiskMaxBytes int64
	// Obs receives hit/miss/eviction counters (nil-safe).
	Obs *obs.Recorder
}

// Defaults for unset Config fields.
const (
	DefaultMaxBytes     = 256 << 20 // 256 MiB in memory
	DefaultDiskMaxBytes = 1 << 30   // 1 GiB on disk
)

// Cache is a bounded, concurrency-safe, content-addressed window-scan
// cache with an in-memory LRU tier and an optional persistent tier.
type Cache struct {
	rec      *obs.Recorder
	maxBytes int64

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[Key]*list.Element
	bytes int64

	disk *diskTier // nil when no Dir configured
}

type memEntry struct {
	key Key
	ent Entry
}

// New opens a cache. It fails only when a persistent Dir is configured and
// cannot be created or indexed.
func New(cfg Config) (*Cache, error) {
	c := &Cache{
		rec:      cfg.Obs,
		maxBytes: cfg.MaxBytes,
		ll:       list.New(),
		items:    make(map[Key]*list.Element),
	}
	if c.maxBytes <= 0 {
		c.maxBytes = DefaultMaxBytes
	}
	if cfg.Dir != "" {
		d, err := openDiskTier(cfg.Dir, cfg.DiskMaxBytes, cfg.Obs)
		if err != nil {
			return nil, err
		}
		c.disk = d
	}
	return c, nil
}

// Get returns the entry for key. A memory hit promotes the entry to the
// LRU front; a disk hit verifies the envelope's integrity checksum and
// promotes into memory. Any disk corruption is removed and reported as a
// miss.
func (c *Cache) Get(key Key) (Entry, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*memEntry).ent
		c.mu.Unlock()
		c.rec.Count("scancache.hits", 1)
		return ent, true
	}
	c.mu.Unlock()
	if c.disk != nil {
		if ent, ok := c.disk.get(key); ok {
			c.insert(key, ent)
			c.rec.Count("scancache.hits", 1)
			c.rec.Count("scancache.disk_hits", 1)
			return ent, true
		}
	}
	c.rec.Count("scancache.misses", 1)
	return Entry{}, false
}

// Discard removes key from both tiers. Consumers call it when a cached
// payload fails the DCWS decoder — the envelope checksum makes that
// unreachable for disk corruption, but a decode failure from any cause must
// not survive to poison later runs.
func (c *Cache) Discard(key Key) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		me := el.Value.(*memEntry)
		c.ll.Remove(el)
		delete(c.items, key)
		c.bytes -= me.ent.cost()
	}
	c.mu.Unlock()
	if c.disk != nil {
		c.disk.discard(key)
	}
	c.rec.Count("scancache.corrupt", 1)
}

// Put stores an entry under key. Entries are content-addressed, so racing
// writers store identical bytes and last-write-wins is harmless.
func (c *Cache) Put(key Key, ent Entry) {
	if len(ent.Payload) == 0 {
		return
	}
	c.insert(key, ent)
	if c.disk != nil {
		c.disk.put(key, ent)
	}
}

func (c *Cache) insert(key Key, ent Entry) {
	cost := ent.cost()
	if cost > c.maxBytes {
		return // never evict the whole cache for one oversized window
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		old := el.Value.(*memEntry)
		c.bytes += cost - old.ent.cost()
		old.ent = ent
	} else {
		c.items[key] = c.ll.PushFront(&memEntry{key: key, ent: ent})
		c.bytes += cost
	}
	var evicted int64
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		me := back.Value.(*memEntry)
		c.ll.Remove(back)
		delete(c.items, me.key)
		c.bytes -= me.ent.cost()
		evicted++
	}
	c.mu.Unlock()
	if evicted > 0 {
		c.rec.Count("scancache.evictions", evicted)
	}
}

// Len reports the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes reports the in-memory tier's current footprint.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// MaxBytes reports the in-memory budget.
func (c *Cache) MaxBytes() int64 { return c.maxBytes }

// DiskBytes reports the persistent tier's current footprint (0 when no
// Dir is configured).
func (c *Cache) DiskBytes() int64 {
	if c.disk == nil {
		return 0
	}
	return c.disk.bytesUsed()
}

// DiskMaxBytes reports the persistent tier's budget (0 when disabled).
func (c *Cache) DiskMaxBytes() int64 {
	if c.disk == nil {
		return 0
	}
	return c.disk.maxBytes
}

// Persistent reports whether a disk tier is configured.
func (c *Cache) Persistent() bool { return c.disk != nil }
