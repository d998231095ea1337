// Package zk implements the ZooKeeper-style coordination substrate the
// subject systems synchronize through: a znode tree with create / set /
// delete / get, ephemeral znodes bound to a creator session, and persistent
// prefix watches.
//
// Every mutation carries a monotonically increasing zxid. A mutation on
// behalf of node n1 that fires a watch registered by node n2 is exactly the
// Update(s, n1) ⇒ Pushed(s, n2) causality of Rule-Mpush (paper §2.1): the
// runtime records the zxid on both sides so trace analysis can pair them.
package zk

import (
	"sort"
	"strings"
)

// EventKind classifies watch notifications, mirroring ZooKeeper's
// NodeCreated / NodeDataChanged / NodeDeleted watcher events (§3.1.1).
type EventKind uint8

// Watch event kinds.
const (
	NodeCreated EventKind = iota
	NodeDataChanged
	NodeDeleted
)

func (k EventKind) String() string {
	switch k {
	case NodeCreated:
		return "created"
	case NodeDataChanged:
		return "changed"
	default:
		return "deleted"
	}
}

// Notification is one watch firing, to be delivered to Watcher.
type Notification struct {
	Watcher string // node that registered the watch
	Handler string // event-handler function registered for it
	Path    string
	Data    string
	Kind    EventKind
	Zxid    uint64
}

type znode struct {
	data      string
	owner     string // session (node name) for ephemerals; "" otherwise
	ephemeral bool
}

type watch struct {
	prefix  string
	watcher string
	handler string
}

// Store is the coordination service state. It is driven entirely by the
// cluster scheduler (one action at a time), so it needs no locking.
type Store struct {
	nodes   map[string]*znode
	watches []watch
	zxid    uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{nodes: map[string]*znode{}}
}

func (s *Store) fire(path, data string, kind EventKind, zxid uint64) []Notification {
	var ns []Notification
	for _, w := range s.watches {
		if strings.HasPrefix(path, w.prefix) {
			ns = append(ns, Notification{
				Watcher: w.watcher, Handler: w.handler,
				Path: path, Data: data, Kind: kind, Zxid: zxid,
			})
		}
	}
	return ns
}

// Create makes a znode. It fails (ok=false, no notifications) if the path
// exists. owner is the creating node's name, used as the session for
// ephemeral znodes.
func (s *Store) Create(path, data, owner string, ephemeral bool) (zxid uint64, ok bool, ns []Notification) {
	if _, exists := s.nodes[path]; exists {
		return 0, false, nil
	}
	s.zxid++
	zn := &znode{data: data, ephemeral: ephemeral}
	if ephemeral {
		zn.owner = owner
	}
	s.nodes[path] = zn
	return s.zxid, true, s.fire(path, data, NodeCreated, s.zxid)
}

// Set overwrites a znode's data; fails if the path is missing.
func (s *Store) Set(path, data string) (zxid uint64, ok bool, ns []Notification) {
	zn, exists := s.nodes[path]
	if !exists {
		return 0, false, nil
	}
	s.zxid++
	zn.data = data
	return s.zxid, true, s.fire(path, data, NodeDataChanged, s.zxid)
}

// Delete removes a znode; fails if the path is missing.
func (s *Store) Delete(path string) (zxid uint64, ok bool, ns []Notification) {
	if _, exists := s.nodes[path]; !exists {
		return 0, false, nil
	}
	s.zxid++
	delete(s.nodes, path)
	return s.zxid, true, s.fire(path, "", NodeDeleted, s.zxid)
}

// Get reads a znode's data.
func (s *Store) Get(path string) (data string, ok bool) {
	zn, exists := s.nodes[path]
	if !exists {
		return "", false
	}
	return zn.data, true
}

// Watch registers a persistent prefix watch for watcher node, handled by
// the named event-handler function.
func (s *Store) Watch(prefix, watcher, handler string) {
	s.watches = append(s.watches, watch{prefix: prefix, watcher: watcher, handler: handler})
}

// ExpireSession deletes every ephemeral znode owned by the session (a
// crashed node), firing deletion watches — ZooKeeper's session-expiry
// behaviour that the HB-4729 workload ("expire server") depends on. The
// notifications are returned in deterministic path order.
func (s *Store) ExpireSession(owner string) []Notification {
	var paths []string
	for p, zn := range s.nodes {
		if zn.ephemeral && zn.owner == owner {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	var all []Notification
	for _, p := range paths {
		_, _, ns := s.Delete(p)
		all = append(all, ns...)
	}
	// Drop notifications destined for the dead session itself.
	kept := all[:0]
	for _, n := range all {
		if n.Watcher != owner {
			kept = append(kept, n)
		}
	}
	return kept
}
