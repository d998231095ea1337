package zk

import (
	"testing"
	"testing/quick"
)

func TestCreateGetSetDelete(t *testing.T) {
	s := NewStore()
	zx1, ok, ns := s.Create("/a", "v1", "n1", false)
	if !ok || zx1 == 0 || len(ns) != 0 {
		t.Fatalf("create: zx=%d ok=%v ns=%v", zx1, ok, ns)
	}
	if _, ok, _ := s.Create("/a", "v2", "n1", false); ok {
		t.Fatal("duplicate create succeeded")
	}
	if d, ok := s.Get("/a"); !ok || d != "v1" {
		t.Fatalf("get = %q,%v", d, ok)
	}
	zx2, ok, _ := s.Set("/a", "v2")
	if !ok || zx2 <= zx1 {
		t.Fatalf("set: zx=%d ok=%v (prev %d)", zx2, ok, zx1)
	}
	if _, ok, _ := s.Set("/missing", "x"); ok {
		t.Fatal("set on missing path succeeded")
	}
	zx3, ok, _ := s.Delete("/a")
	if !ok || zx3 <= zx2 {
		t.Fatalf("delete: zx=%d ok=%v", zx3, ok)
	}
	if _, ok, _ := s.Delete("/a"); ok {
		t.Fatal("double delete succeeded")
	}
	if s.Exists("/a") {
		t.Fatal("deleted path exists")
	}
}

func TestWatchPrefix(t *testing.T) {
	s := NewStore()
	s.Watch("/region/", "master", "onRegion")
	s.Watch("/servers/", "master", "onServer")
	_, _, ns := s.Create("/region/r1", "OPENING", "rs1", false)
	if len(ns) != 1 || ns[0].Watcher != "master" || ns[0].Handler != "onRegion" ||
		ns[0].Kind != NodeCreated || ns[0].Path != "/region/r1" {
		t.Fatalf("create notification wrong: %+v", ns)
	}
	_, _, ns = s.Set("/region/r1", "OPENED")
	if len(ns) != 1 || ns[0].Kind != NodeDataChanged || ns[0].Data != "OPENED" {
		t.Fatalf("set notification wrong: %+v", ns)
	}
	_, _, ns = s.Delete("/region/r1")
	if len(ns) != 1 || ns[0].Kind != NodeDeleted {
		t.Fatalf("delete notification wrong: %+v", ns)
	}
	// Unrelated prefix: no notification.
	if _, _, ns := s.Create("/other/x", "", "n", false); len(ns) != 0 {
		t.Fatalf("unrelated create notified: %+v", ns)
	}
}

func TestMultipleWatchers(t *testing.T) {
	s := NewStore()
	s.Watch("/x", "a", "h")
	s.Watch("/x", "b", "h")
	_, _, ns := s.Create("/x", "", "n", false)
	if len(ns) != 2 {
		t.Fatalf("want 2 notifications, got %d", len(ns))
	}
}

func TestEphemeralExpiry(t *testing.T) {
	s := NewStore()
	s.Watch("/servers/", "master", "onServer")
	s.Create("/servers/rs1", "alive", "rs1", true)
	s.Create("/servers/rs2", "alive", "rs2", true)
	s.Create("/data", "keep", "rs1", false) // persistent survives
	ns := s.ExpireSession("rs1")
	if len(ns) != 1 || ns[0].Path != "/servers/rs1" || ns[0].Kind != NodeDeleted {
		t.Fatalf("expiry notifications wrong: %+v", ns)
	}
	if s.Exists("/servers/rs1") {
		t.Fatal("ephemeral survived expiry")
	}
	if !s.Exists("/servers/rs2") || !s.Exists("/data") {
		t.Fatal("expiry deleted other sessions' or persistent nodes")
	}
}

func TestExpiryDropsOwnNotifications(t *testing.T) {
	s := NewStore()
	s.Watch("/servers/", "rs1", "onSelf")
	s.Watch("/servers/", "master", "onServer")
	s.Create("/servers/rs1", "alive", "rs1", true)
	ns := s.ExpireSession("rs1")
	for _, n := range ns {
		if n.Watcher == "rs1" {
			t.Fatal("dead session notified about its own expiry")
		}
	}
	if len(ns) != 1 {
		t.Fatalf("want 1 notification for master, got %d", len(ns))
	}
}

// Property: zxids are strictly monotonic across successful mutations.
func TestQuickZxidMonotonic(t *testing.T) {
	f := func(ops []uint8) bool {
		s := NewStore()
		last := uint64(0)
		paths := []string{"/a", "/b", "/c"}
		for i, op := range ops {
			p := paths[i%len(paths)]
			var zx uint64
			var ok bool
			switch op % 3 {
			case 0:
				zx, ok, _ = s.Create(p, "v", "n", op%2 == 0)
			case 1:
				zx, ok, _ = s.Set(p, "w")
			default:
				zx, ok, _ = s.Delete(p)
			}
			if ok {
				if zx <= last {
					return false
				}
				last = zx
			} else if zx != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Exists reports whether the path is present.
func (s *Store) Exists(path string) bool {
	_, ok := s.nodes[path]
	return ok
}
