// Package minizk is a miniature ZooKeeper ensemble: three peers elect a
// leader over asynchronous socket messages, then run an epoch handshake in
// which followers report to the leader and the leader waits for a quorum of
// acknowledgments (the waitForEpoch barrier of paper §7.2).
//
// Re-injected bugs (both "startup, service unavailable, local hang, order
// violation" in Table 3):
//
//   - ZK-1270: a follower's election-notification handler reads the local
//     election state concurrently with the main thread initializing it. If
//     the notification arrives first, it is dropped, the follower never
//     learns the leader, and startup hangs.
//
//   - ZK-1144: the leader's FOLLOWERINFO handler reads currentEpoch
//     concurrently with the leader main thread initializing it after
//     election. If the handler wins, the follower's acknowledgment is
//     dropped, the quorum is never reached, and waitForEpoch hangs.
//
// The leader's post-barrier read of followerData against the first
// follower's write is ordered by the 2-of-2 quorum barrier — a distributed
// custom synchronization DCatch's HB rules cannot infer, so it is reported
// as a candidate and classified *serial* by the triggering module, exactly
// the waitForEpoch false positive discussed in §7.2.
package minizk

import (
	"dcatch/internal/ir"
	"dcatch/internal/rt"
	"dcatch/internal/subjects"
)

// Node names; ZK3 has the highest ID and wins the election.
const (
	ZK1 = "zk1"
	ZK2 = "zk2"
	ZK3 = "zk3"
)

// Config selects which injected race is active. SafeEpoch orders the epoch
// initialization before the leader's notifications, putting it on the HB
// chain to the followers' replies (a true fix). SafeElection applies the
// real-world fix for ZK-1270 — a notification arriving in an unexpected
// state is requeued instead of dropped — because no statement ordering can
// causally protect a node's local init against another node's spontaneous
// message.
type Config struct {
	SafeElection bool // true = no ZK-1270 bug (requeue instead of drop)
	SafeEpoch    bool // true = no ZK-1144 race
}

// Program builds the mini-ZooKeeper subject program.
func Program(cfg Config) *ir.Program {
	b := ir.NewProgram("minizk")

	m := b.Func("ZKS.main", "peer1", "peer2")
	m.Send(ir.L("peer1"), "ZKS.onHello", ir.Self())
	m.Send(ir.L("peer2"), "ZKS.onHello", ir.Self())
	m.Write("state", nil, ir.S("LOOKING")) // ZK-1270 racing write
	m.If(ir.Eq(ir.Self(), ir.S(ZK3)), func(t *ir.BlockBuilder) {
		// Highest ID: declare self leader and notify the ensemble.
		t.Write("leader", nil, ir.S(ZK3))
		if cfg.SafeEpoch {
			t.Write("currentEpoch", nil, ir.I(5)) // safe: init before notify
		}
		t.Send(ir.L("peer1"), "ZKS.onElected", ir.S(ZK3))
		t.Send(ir.L("peer2"), "ZKS.onElected", ir.S(ZK3))
	})
	// Poll until the leader is known (local while-loop custom sync).
	m.Assign("ld", ir.NullE())
	m.While(ir.IsNull(ir.L("ld")), func(t *ir.BlockBuilder) {
		t.Read("leader", nil, "ld")
		t.Sleep(3)
	})
	m.If(ir.Eq(ir.Self(), ir.S(ZK3)), func(t *ir.BlockBuilder) {
		if !cfg.SafeEpoch {
			t.Write("currentEpoch", nil, ir.I(5)) // ZK-1144 racing write
		}
		// waitForEpoch: the quorum barrier of §7.2.
		t.Assign("acks", ir.I(0))
		t.While(ir.Lt(ir.L("acks"), ir.I(2)), func(t2 *ir.BlockBuilder) {
			t2.Read("ackCount", nil, "a")
			t2.If(ir.IsNull(ir.L("a")), func(t3 *ir.BlockBuilder) { t3.Assign("a", ir.I(0)) })
			t2.Assign("acks", ir.L("a"))
			t2.Sleep(3)
		})
		// Post-barrier read: ordered by the quorum, but concurrent
		// under DCatch's HB rules (the §7.2 serial false positive).
		t.Read("followerData", ir.S(ZK1), "fd")
		t.If(ir.IsNull(ir.L("fd")), func(t2 *ir.BlockBuilder) {
			t2.LogFatal("follower data lost after quorum")
		})
		t.Send(ir.L("peer1"), "ZKS.onNewEpoch", ir.I(5))
		t.Send(ir.L("peer2"), "ZKS.onNewEpoch", ir.I(5))
		t.Print("leader ready, epoch 5")
	}, func(t *ir.BlockBuilder) {
		// Followers: wait for the new epoch to be announced.
		t.Assign("ne", ir.NullE())
		t.While(ir.IsNull(ir.L("ne")), func(t2 *ir.BlockBuilder) {
			t2.Read("newEpoch", nil, "ne")
			t2.Sleep(3)
		})
		t.Print("follower synced to epoch", ir.L("ne"))
	})

	hello := b.Msg("ZKS.onHello", "from")
	hello.Write("lastContact", ir.L("from"), ir.I(1))
	hello.Sync("peersLock", nil, func(t *ir.BlockBuilder) {
		t.Read("peersSeen", nil, "c")
		t.If(ir.IsNull(ir.L("c")), func(t2 *ir.BlockBuilder) { t2.Assign("c", ir.I(0)) })
		t.Write("peersSeen", nil, ir.Add(ir.L("c"), ir.I(1)))
	})

	el := b.Msg("ZKS.onElected", "lid")
	el.Read("state", nil, "st") // ZK-1270 racing read
	el.If(ir.Eq(ir.L("st"), ir.S("LOOKING")), func(t *ir.BlockBuilder) {
		t.Write("leader", nil, ir.L("lid"))
		// zk2 reports late so zk1's acknowledgment reliably arrives
		// first at the leader.
		t.If(ir.Eq(ir.Self(), ir.S(ZK2)), func(t2 *ir.BlockBuilder) {
			t2.Sleep(25)
		})
		t.Send(ir.L("lid"), "ZKS.onFollowerInfo", ir.Self(), ir.I(5))
	}, func(t *ir.BlockBuilder) {
		if cfg.SafeElection {
			// The fixed code requeues the notification and retries.
			t.LogInfo("requeueing early election notification")
			t.Send(ir.Self(), "ZKS.onElected", ir.L("lid"))
		} else {
			// No retransmission: the notification is lost for good.
			t.LogError("dropping election notification in unexpected state", ir.L("st"))
		}
	})

	fi := b.Msg("ZKS.onFollowerInfo", "from", "e")
	fi.Write("followerData", ir.L("from"), ir.L("e")) // serial-FP write
	fi.Read("currentEpoch", nil, "ce")                // ZK-1144 racing read
	fi.If(ir.Eq(ir.L("e"), ir.L("ce")), func(t *ir.BlockBuilder) {
		t.Read("ackCount", nil, "a")
		t.If(ir.IsNull(ir.L("a")), func(t2 *ir.BlockBuilder) { t2.Assign("a", ir.I(0)) })
		t.Write("ackCount", nil, ir.Add(ir.L("a"), ir.I(1)))
	}, func(t *ir.BlockBuilder) {
		t.LogError("epoch mismatch, dropping follower ack from", ir.L("from"))
	})

	ne := b.Msg("ZKS.onNewEpoch", "e")
	ne.Write("newEpoch", nil, ir.L("e"))

	return b.MustBuild()
}

func workload(name string, cfg Config) *rt.Workload {
	peers := map[string][2]string{
		ZK1: {ZK2, ZK3},
		ZK2: {ZK1, ZK3},
		ZK3: {ZK1, ZK2},
	}
	var nodes []rt.NodeSpec
	for _, n := range []string{ZK1, ZK2, ZK3} {
		nodes = append(nodes, rt.NodeSpec{
			Name:       n,
			NetWorkers: 1,
			Mains: []rt.MainSpec{{
				Fn:   "ZKS.main",
				Args: []ir.Value{ir.StrV(peers[n][0]), ir.StrV(peers[n][1])},
			}},
		})
	}
	return &rt.Workload{Name: name, Program: Program(cfg), Nodes: nodes}
}

// WorkloadZK1270 has the election race (epoch phase safe).
func WorkloadZK1270() *rt.Workload {
	return workload("minizk-1270", Config{SafeElection: false, SafeEpoch: true})
}

// WorkloadZK1144 has the epoch race (election safe).
func WorkloadZK1144() *rt.Workload {
	return workload("minizk-1144", Config{SafeElection: true, SafeEpoch: false})
}

// BenchZK1270 is the election-notification benchmark.
func BenchZK1270() *subjects.Benchmark {
	w := WorkloadZK1270()
	p := w.Program
	return &subjects.Benchmark{
		ID:           "ZK-1270",
		System:       "ZooKeeper",
		WorkloadDesc: "startup",
		Symptom:      "Service unavailable",
		ErrorPattern: "LH",
		RootCause:    "OV",
		Workload:     w,
		Seed:         1,
		MaxSteps:     150_000,
		Bugs: []subjects.KnownPair{
			{
				Desc: "election state init vs notification-handler state read",
				A:    subjects.WriteOf(p, "ZKS.main", "state"),
				B:    subjects.ReadOf(p, "ZKS.onElected", "state"),
			},
		},
		Serials: []subjects.KnownPair{
			{
				Desc: "waitForEpoch barrier: followerData write vs post-quorum read",
				A:    subjects.WriteOf(p, "ZKS.onFollowerInfo", "followerData"),
				B:    subjects.ReadOf(p, "ZKS.main", "followerData"),
			},
		},
	}
}

// BenchZK1144 is the epoch-handshake benchmark.
func BenchZK1144() *subjects.Benchmark {
	w := WorkloadZK1144()
	p := w.Program
	return &subjects.Benchmark{
		ID:           "ZK-1144",
		System:       "ZooKeeper",
		WorkloadDesc: "startup",
		Symptom:      "Service unavailable",
		ErrorPattern: "LH",
		RootCause:    "OV",
		Workload:     w,
		Seed:         1,
		MaxSteps:     150_000,
		Bugs: []subjects.KnownPair{
			{
				Desc: "currentEpoch init vs FOLLOWERINFO-handler epoch read",
				A:    subjects.WriteOf(p, "ZKS.main", "currentEpoch"),
				B:    subjects.ReadOf(p, "ZKS.onFollowerInfo", "currentEpoch"),
			},
		},
		Serials: []subjects.KnownPair{
			{
				Desc: "waitForEpoch barrier: followerData write vs post-quorum read",
				A:    subjects.WriteOf(p, "ZKS.onFollowerInfo", "followerData"),
				B:    subjects.ReadOf(p, "ZKS.main", "followerData"),
			},
		},
	}
}
