package flit

// Whitebox tests of the hot-path structures: the packet arena stays
// bounded by what the network can hold however deep the injection
// backlog grows, and the ring queues and armed-feeder bitmaps agree
// with each other throughout a run.

import (
	"math/bits"
	"testing"

	"xgftsim/internal/core"
	"xgftsim/internal/topology"
	"xgftsim/internal/traffic"
)

// checkHotPath verifies the queue and bitmap invariants of a paused
// engine: every ring holds at most BufferPackets packets and no more
// than its reservations, linkQueued sums the rings, and a link's armed
// bit is set exactly while it has a queued packet and is not failed.
func checkHotPath(t *testing.T, e *engine) {
	t.Helper()
	nl := len(e.linkQueued)
	for l := 0; l < nl; l++ {
		sum := int32(0)
		for vc := 0; vc < e.vcs; vc++ {
			q := e.qid(int32(l), int8(vc))
			if n := e.qlen[q]; n < 0 || int(n) > e.cfg.BufferPackets || int(n) > e.occ[q] {
				t.Fatalf("queue %d holds %d packets with %d reserved slots (B=%d)", q, n, e.occ[q], e.cfg.BufferPackets)
			}
			sum += e.qlen[q]
		}
		if sum != e.linkQueued[l] {
			t.Fatalf("link %d: linkQueued %d, rings hold %d", l, e.linkQueued[l], sum)
		}
		bit := e.armBit[l]
		armed := e.armed[bit>>6]&(1<<uint(bit&63)) != 0
		if want := sum > 0 && !e.failed[l]; armed != want {
			t.Fatalf("link %d: armed %v, want %v (queued %d, failed %v)", l, armed, want, sum, e.failed[l])
		}
	}
	set := 0
	for _, w := range e.armed {
		set += bits.OnesCount64(w)
	}
	live := 0
	for l := 0; l < nl; l++ {
		if e.linkQueued[l] > 0 && !e.failed[l] {
			live++
		}
	}
	if set != live {
		t.Fatalf("%d armed bits for %d armed links (a stray bit)", set, live)
	}
}

// TestPacketArenaBounded saturates a hotspot fabric far past its
// capacity: the injection backlog grows without bound, but packet
// slots are only taken on admission to the network, so the arena
// never exceeds the queue slots plus one in-delivery packet per link.
func TestPacketArenaBounded(t *testing.T) {
	tp := topology.MustNew(2, []int{4, 4}, []int{1, 4})
	n := tp.NumProcessors()
	for _, sel := range []OutputSelector{SelectOblivious, SelectAdaptive, SelectAdaptiveK} {
		t.Run(sel.String(), func(t *testing.T) {
			cfg, err := Config{
				Routing:       core.NewRouting(tp, core.Disjoint{}, 4, 0),
				Pattern:       traffic.HotspotPattern{N: n, Hot: 5, Fraction: 0.5},
				OfferedLoad:   1.0,
				WarmupCycles:  1000,
				MeasureCycles: 6000,
				Seed:          3,
				Selector:      sel,
			}.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			e := newEngine(cfg)
			res := e.run()
			checkHotPath(t, e)
			nl := tp.NumLinks()
			bound := nl*e.vcs*cfg.BufferPackets + nl
			if len(e.packets) > bound {
				t.Errorf("packet arena grew to %d slots; the network holds at most %d", len(e.packets), bound)
			}
			if res.BacklogPackets <= int64(bound) {
				t.Errorf("backlog %d packets never outgrew the network (%d): test is not saturating", res.BacklogPackets, bound)
			}
		})
	}
}

// TestArmedBitmapInvariants pauses runs mid-flight and checks the
// ring and bitmap invariants, including failed links (which hold
// packets but are never armed) and a fabric whose leaf switches have
// more than 64 inbound links, so their bitmaps span several words.
func TestArmedBitmapInvariants(t *testing.T) {
	tp := topology.MustNew(3, []int{2, 2, 4}, []int{1, 2, 2})
	faults, err := topology.RandomCableFaults(tp, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	wide := topology.MustNew(2, []int{72, 2}, []int{1, 2})
	cases := []struct {
		name string
		wide bool
		cfg  Config
	}{
		{"oblivious-faults", false, Config{Routing: core.NewRouting(tp, core.Disjoint{}, 4, 0), Faults: faults,
			Pattern: traffic.UniformPattern{N: tp.NumProcessors()}, VirtualChannels: 2}},
		{"adaptivek-faults", false, Config{Routing: core.NewRouting(tp, core.Disjoint{}, 4, 0), Faults: faults,
			Pattern: traffic.UniformPattern{N: tp.NumProcessors()}, Selector: SelectAdaptiveK}},
		{"wide-oblivious", true, Config{Routing: core.NewRouting(wide, core.Disjoint{}, 2, 0),
			Pattern: traffic.UniformPattern{N: wide.NumProcessors()}}},
		{"wide-adaptive", true, Config{Routing: core.NewRouting(wide, core.Disjoint{}, 2, 0),
			Pattern: traffic.UniformPattern{N: wide.NumProcessors()}, Selector: SelectAdaptive, VirtualChannels: 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.OfferedLoad = 0.9
			c.cfg.Seed = 11
			cfg, err := c.cfg.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			e := newEngine(cfg)
			if c.wide && e.armOff[e.numProc+1]-e.armOff[e.numProc] < 2 {
				t.Fatal("wide fabric's leaf bitmap fits one word; test would not cover multiword bitmaps")
			}
			e.start()
			for stop := int64(500); stop <= 3000; stop += 500 {
				e.loop(stop)
				checkHotPath(t, e)
			}
			if e.pktsInFlight == 0 {
				t.Fatal("no traffic in flight; invariants checked on an idle fabric")
			}
		})
	}
}
