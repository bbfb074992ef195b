package serve

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"nfactor/internal/core"
	"nfactor/internal/dataplane"
	"nfactor/internal/netpkt"
	"nfactor/internal/nfs"
	"nfactor/internal/workload"
)

// --- helpers ----------------------------------------------------------

func analyzeNF(t *testing.T, name string) *core.Analysis {
	t.Helper()
	an, err := core.Analyze(name, nfs.MustLoad(name).Prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func analyzeSource(t *testing.T, name, src string) *core.Analysis {
	t.Helper()
	nf, err := nfs.FromSource(name, src)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.Analyze(name, nf.Prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return an
}

// firewallWiderConfig re-synthesizes the firewall with one more egress
// port in its configuration map: same entry table, different concrete
// config — a behavior change the gate must attribute to the egress
// guard.
func firewallWiderConfig(t *testing.T) *core.Analysis {
	t.Helper()
	src := strings.Replace(nfs.MustLoad("firewall").Source,
		`22: "ssh"}`, `22: "ssh", 8080: "alt"}`, 1)
	if !strings.Contains(src, "8080") {
		t.Fatal("firewall source changed shape; update the test's config edit")
	}
	return analyzeSource(t, "firewall", src)
}

// firewallExtraRule re-synthesizes the firewall with a structurally new
// egress rule (port 8080 allowed as a special case): the model grows
// entries, so the swap report shows a real entry-table diff.
func firewallExtraRule(t *testing.T) *core.Analysis {
	t.Helper()
	base := nfs.MustLoad("firewall").Source
	old := `        } else {
            blocked_stat = blocked_stat + 1;
        }`
	new_ := `        } else {
            if pkt.dport == 8080 {
                conns[(pkt.sip, pkt.sport, pkt.dip, pkt.dport)] = 1;
                allowed_stat = allowed_stat + 1;
                send(pkt, UNTRUSTED_IFACE);
            } else {
                blocked_stat = blocked_stat + 1;
            }
        }`
	src := strings.Replace(base, old, new_, 1)
	if src == base {
		t.Fatal("firewall source changed shape; update the test's rule edit")
	}
	return analyzeSource(t, "firewall", src)
}

// firewallTrace mixes egress flows over the policy ports (including the
// 8080 port only the modified generations allow), their wan replies,
// and unsolicited wan probes.
func firewallTrace(n int) []netpkt.Packet {
	ports := []int{80, 443, 8080, 53, 22}
	out := make([]netpkt.Packet, 0, n)
	for i := 0; len(out) < n; i++ {
		p := netpkt.Packet{
			SrcIP: fmt.Sprintf("10.0.0.%d", i%20+1), DstIP: fmt.Sprintf("8.8.%d.%d", i%3, i%7+1),
			SrcPort: 1024 + i%500, DstPort: ports[i%len(ports)],
			Proto: "tcp", Flags: "S", TTL: 64, InIface: "lan",
		}
		out = append(out, p)
		if len(out) < n && i%2 == 0 {
			out = append(out, netpkt.Packet{
				SrcIP: p.DstIP, DstIP: p.SrcIP, SrcPort: p.DstPort, DstPort: p.SrcPort,
				Proto: "tcp", Flags: "A", TTL: 60, InIface: "wan",
			})
		}
	}
	return out[:n]
}

// recordSink captures every served outcome in order.
type recordSink struct {
	pkts     []netpkt.Packet
	verdicts []netpkt.Verdict
	entries  []int
	epochs   []uint64
}

func (r *recordSink) Emit(seq int64, p *netpkt.Packet, o *Outcome) error {
	r.pkts = append(r.pkts, *p)
	r.verdicts = append(r.verdicts, o.Verdict)
	r.entries = append(r.entries, o.Entry)
	r.epochs = append(r.epochs, o.Epoch)
	return nil
}

// runServer starts Run on its own goroutine.
func runServer(s *Server) chan error {
	done := make(chan error, 1)
	go func() { done <- s.Run() }()
	return done
}

// checkEpochStream asserts the per-packet consistency invariant on a
// sink-observed epoch stream: non-decreasing, exactly `swaps`
// transitions, every transition on a batch boundary.
func checkEpochStream(t *testing.T, epochs []uint64, batch int, swaps int) {
	t.Helper()
	transitions := 0
	for i := 1; i < len(epochs); i++ {
		if epochs[i] < epochs[i-1] {
			t.Fatalf("packet %d: epoch went backwards (%d after %d)", i, epochs[i], epochs[i-1])
		}
		if epochs[i] != epochs[i-1] {
			transitions++
			if i%batch != 0 {
				t.Errorf("packet %d: generation changed mid-batch (batch size %d)", i, batch)
			}
		}
	}
	if transitions != swaps {
		t.Errorf("epoch transitions = %d, want %d", transitions, swaps)
	}
}

// --- tentpole: swap under load ----------------------------------------

// TestSwapUnderLoadEpochConsistency swaps a serving firewall for a
// re-synthesized generation with a structurally new rule, mid-stream,
// at shard counts 1, 2 and 4, and asserts per-packet generation
// consistency: no packet observes a mixed or stale generation, the
// epoch stream has exactly one transition and it falls on a batch
// barrier, and the behavior change lands exactly at the swap.
func TestSwapUnderLoadEpochConsistency(t *testing.T) {
	base := analyzeNF(t, "firewall")
	next := firewallExtraRule(t)
	trace := firewallTrace(240)

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sink := &recordSink{}
			srv, err := New(Candidate{Analysis: base, Shards: shards}, Config{
				Source:     NewTraceSource(trace, true, 2048),
				Sink:       sink,
				BatchSize:  64,
				WindowSize: 256,
			})
			if err != nil {
				t.Fatal(err)
			}
			done := runServer(srv)
			ch := srv.RequestSwap(SwapRequest{
				Candidate:           Candidate{Analysis: next, Shards: shards, Name: "firewall+8080-rule"},
				AllowBehaviorChange: true,
				AfterPackets:        1024,
			})
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			rep := <-ch
			if rep.Blocked {
				t.Fatalf("swap blocked: %s", rep.Reason)
			}
			if rep.From != 1 || rep.To != 2 {
				t.Errorf("swap generations %d -> %d, want 1 -> 2", rep.From, rep.To)
			}
			if rep.EntriesAdded == 0 {
				t.Errorf("entry-table diff empty for a structurally grown model: %+v", rep)
			}

			stats := srv.Stats()
			if stats.Packets != 2048 || stats.Swaps != 1 || stats.SwapsBlocked != 0 {
				t.Errorf("stats = %s", stats.Report())
			}
			if stats.EpochViolations != 0 {
				t.Fatalf("%d packets observed a mixed or stale generation", stats.EpochViolations)
			}
			if stats.Generation != 2 {
				t.Errorf("serving generation = %d, want 2", stats.Generation)
			}
			checkEpochStream(t, sink.epochs, 64, 1)

			// The behavior change lands exactly at the swap: lan port-8080
			// flows drop on generation 1 and forward on generation 2.
			for i, p := range sink.pkts {
				if p.InIface != "lan" || p.DstPort != 8080 {
					continue
				}
				wantDrop := sink.epochs[i] == 1
				if sink.verdicts[i].Dropped != wantDrop {
					t.Fatalf("packet %d (epoch %d): lan:8080 dropped=%v, want %v",
						i, sink.epochs[i], sink.verdicts[i].Dropped, wantDrop)
				}
			}
		})
	}
}

// TestSwapGateBlocksAndNamesGuard requests a behavior-changing swap
// without AllowBehaviorChange: the differential gate must refuse it,
// name the diverging guard, and leave the old generation serving.
func TestSwapGateBlocksAndNamesGuard(t *testing.T) {
	base := analyzeNF(t, "firewall")
	next := firewallWiderConfig(t)
	trace := firewallTrace(240)

	sink := &recordSink{}
	srv, err := New(Candidate{Analysis: base}, Config{
		Source:     NewTraceSource(trace, true, 512),
		Sink:       sink,
		BatchSize:  64,
		WindowSize: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := runServer(srv)
	ch := srv.RequestSwap(SwapRequest{
		Candidate:    Candidate{Analysis: next, Name: "firewall+8080-config"},
		AfterPackets: 256,
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rep := <-ch
	if !rep.Blocked {
		t.Fatalf("behavior-changing swap was not blocked: %+v", rep)
	}
	if !strings.Contains(rep.Reason, "diverge") {
		t.Errorf("block reason does not name a divergence: %q", rep.Reason)
	}
	if rep.DivergencePacket < 0 || rep.DivergencePacket >= rep.WindowLen {
		t.Errorf("diverging packet index %d outside the %d-packet window", rep.DivergencePacket, rep.WindowLen)
	}
	if !strings.Contains(rep.GuardDiff, "egress_ports") ||
		!strings.Contains(rep.GuardDiff, "gen1") || !strings.Contains(rep.GuardDiff, "gen2") {
		t.Errorf("diverging guard not named: %q", rep.GuardDiff)
	}
	if !strings.Contains(rep.Render(), "BLOCKED") {
		t.Errorf("rendered report does not say BLOCKED:\n%s", rep.Render())
	}

	stats := srv.Stats()
	if stats.Swaps != 0 || stats.SwapsBlocked != 1 || stats.Generation != 1 {
		t.Errorf("stats after blocked swap = %s", stats.Report())
	}
	if stats.Packets != 512 {
		t.Errorf("server stopped serving after the blocked swap: %d packets", stats.Packets)
	}
	if stats.EpochViolations != 0 {
		t.Errorf("%d epoch violations", stats.EpochViolations)
	}
	checkEpochStream(t, sink.epochs, 64, 0)
}

// --- satellite: state carry-over --------------------------------------

// natTrace builds the carry-over stimulus: 640 packets of `flows` lan
// flows (allocating NAT ports in first-seen order), then after the swap
// point replays of those flows, wan replies to their allocated ports
// and `fresh` brand-new lan flows.
func natLanFlow(i int) netpkt.Packet {
	return netpkt.Packet{
		SrcIP: fmt.Sprintf("10.0.0.%d", i+1), DstIP: "7.7.7.7",
		SrcPort: 1000 + i, DstPort: 80,
		Proto: "tcp", Flags: "S", TTL: 64, InIface: "lan",
	}
}

// TestCarryOverNATSequential swaps a serving NAT for a re-synthesized
// identical NAT and checks the session state survives: established
// translations keep working, wan replies to pre-swap allocations still
// translate back, and new flows continue the port allocator where it
// left off. The whole served stream must match an unswapped engine
// packet for packet.
func TestCarryOverNATSequential(t *testing.T) {
	base := analyzeNF(t, "nat")
	next := analyzeNF(t, "nat") // independent re-synthesis of the same NF

	var trace []netpkt.Packet
	for i := 0; len(trace) < 640; i++ {
		trace = append(trace, natLanFlow(i%10))
	}
	for i := 0; len(trace) < 1280; i++ {
		switch i % 3 {
		case 0: // established flow keeps translating
			trace = append(trace, natLanFlow(i%10))
		case 1: // wan reply to a pre-swap allocation (ports 20000..20009)
			trace = append(trace, netpkt.Packet{
				SrcIP: "7.7.7.7", DstIP: "5.5.5.5",
				SrcPort: 80, DstPort: 20000 + i%10,
				Proto: "tcp", Flags: "A", TTL: 60, InIface: "wan",
			})
		case 2: // new flow: the allocator must continue, not restart
			trace = append(trace, natLanFlow(10+i%10))
		}
	}

	// Reference: the same model serving the same trace with no swap.
	config, state, err := base.ConfigAndState(nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dataplane.Compile(base.Model, config, state)
	if err != nil {
		t.Fatal(err)
	}
	var want []netpkt.Verdict
	for i := range trace {
		o, err := ref.Process(&trace[i])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, verdictOfOutput(o))
		if trace[i].InIface == "wan" && o.Dropped {
			t.Fatalf("reference dropped wan reply %d — the stimulus is broken", i)
		}
	}

	sink := &recordSink{}
	srv, err := New(Candidate{Analysis: base}, Config{
		Source:     NewTraceSource(trace, false, 0),
		Sink:       sink,
		BatchSize:  64,
		WindowSize: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := runServer(srv)
	ch := srv.RequestSwap(SwapRequest{
		Candidate:    Candidate{Analysis: next, Name: "nat-resynth"},
		AfterPackets: 640,
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rep := <-ch
	if rep.Blocked {
		t.Fatalf("identical re-synthesis blocked: %s\n%s", rep.Reason, rep.Render())
	}
	carried := map[string]bool{}
	for _, d := range rep.Decisions {
		carried[d.Var] = d.Carried
	}
	for _, v := range []string{"fwd", "rev", "next_port"} {
		if !carried[v] {
			t.Errorf("%s not carried across the swap:\n%s", v, rep.Render())
		}
	}
	if stats := srv.Stats(); stats.EpochViolations != 0 || stats.Swaps != 1 {
		t.Errorf("stats = %s", stats.Report())
	}
	checkEpochStream(t, sink.epochs, 64, 1)

	if len(sink.verdicts) != len(want) {
		t.Fatalf("served %d packets, want %d", len(sink.verdicts), len(want))
	}
	for i := range want {
		if diff := verdictDiff(want[i], sink.verdicts[i]); diff != "" {
			t.Fatalf("packet %d (%s): swapped server diverges from unswapped engine: %s",
				i, &trace[i], diff)
		}
	}
}

func verdictDiff(a, b netpkt.Verdict) string {
	if a.Dropped != b.Dropped {
		return fmt.Sprintf("dropped %v vs %v", a.Dropped, b.Dropped)
	}
	if len(a.Sent) != len(b.Sent) {
		return fmt.Sprintf("sent %d vs %d", len(a.Sent), len(b.Sent))
	}
	for i := range a.Sent {
		if a.Ifaces[i] != b.Ifaces[i] || a.Sent[i].Canonical() != b.Sent[i].Canonical() {
			return fmt.Sprintf("send %d: %s via %s vs %s via %s",
				i, a.Sent[i].Canonical(), a.Ifaces[i], b.Sent[i].Canonical(), b.Ifaces[i])
		}
	}
	return ""
}

// TestCarryOverNATShardedRenamedState carries NAT state into a sharded
// generation. The sharded allocator hands out the same ports in a
// different order (shard s serves init+s, init+s+n, ...), so the carry
// is verified modulo the allocator bijection: every flow must keep the
// port it was assigned before the swap, and the whole stream must stay
// equivalent to a sequential unswapped engine under dataplane.Equiv.
func TestCarryOverNATShardedRenamedState(t *testing.T) {
	base := analyzeNF(t, "nat")
	next := analyzeNF(t, "nat")

	// Lan-only traffic: 20 flows allocate before the swap, the same 20
	// keep flowing after it. (No new post-swap allocations: a sharded
	// allocator's carry is exact only for its merged sequential
	// position, which is the documented contract.)
	var trace []netpkt.Packet
	for i := 0; len(trace) < 1280; i++ {
		trace = append(trace, natLanFlow(i%20))
	}

	config, state, err := base.ConfigAndState(nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dataplane.Compile(base.Model, config, state)
	if err != nil {
		t.Fatal(err)
	}
	var want []dataplane.Output
	for i := range trace {
		o, err := ref.Process(&trace[i])
		if err != nil {
			t.Fatal(err)
		}
		cp := dataplane.Output{Dropped: o.Dropped, Entry: o.Entry}
		cp.Sent = append(cp.Sent, o.Sent...)
		want = append(want, cp)
	}

	sink := &recordSink{}
	srv, err := New(Candidate{Analysis: base, Shards: 2}, Config{
		Source:     NewTraceSource(trace, false, 0),
		Sink:       sink,
		BatchSize:  64,
		WindowSize: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := runServer(srv)
	ch := srv.RequestSwap(SwapRequest{
		Candidate:    Candidate{Analysis: next, Shards: 2, Name: "nat-resynth-sharded"},
		AfterPackets: 640,
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rep := <-ch
	if rep.Blocked {
		t.Fatalf("sharded re-synthesis swap blocked: %s\n%s", rep.Reason, rep.Render())
	}
	if stats := srv.Stats(); stats.EpochViolations != 0 || stats.Swaps != 1 {
		t.Errorf("stats = %s", stats.Report())
	}
	checkEpochStream(t, sink.epochs, 64, 1)

	// Compare the full served stream — across the swap — against the
	// sequential reference, modulo the allocator-renaming bijection. A
	// reset (or mis-merged) allocator breaks the bijection: a flow's
	// post-swap port would pair its sequential port with a second
	// sharded value.
	cls, err := dataplane.Classify(base.Model, config, state)
	if err != nil {
		t.Fatal(err)
	}
	eq := dataplane.NewEquiv(cls, config)
	for i := range want {
		v := sink.verdicts[i]
		got := dataplane.Output{Dropped: v.Dropped, Entry: sink.entries[i]}
		for j := range v.Sent {
			got.Sent = append(got.Sent, dataplane.SentPacket{Pkt: v.Sent[j], Iface: v.Ifaces[j]})
		}
		if diff := eq.CompareOutputs(dataplane.FlowKey(&trace[i]), &want[i], &got); diff != "" {
			t.Fatalf("packet %d (%s): sharded swapped stream diverges: %s", i, &trace[i], diff)
		}
	}

	// Direct port-stability check, independent of Equiv: each flow's
	// rewritten source port after the swap equals its port before it.
	prePort := map[string]int{}
	for i := range trace {
		if len(sink.verdicts[i].Sent) == 0 {
			continue
		}
		flow := trace[i].SrcIP
		port := sink.verdicts[i].Sent[0].SrcPort
		if i < 640 {
			prePort[flow] = port
		} else if prev, ok := prePort[flow]; ok && prev != port {
			t.Fatalf("packet %d: flow %s changed NAT port across the swap (%d -> %d)",
				i, flow, prev, port)
		}
	}
}

// --- satellite: chain serving -----------------------------------------

// TestChainServeAndSwap serves a fused (and a sharded) dpi->snortlite
// chain and hot-swaps it for an independently re-synthesized chain:
// the swap must apply, carry per-stage state under hop-namespaced
// names, and keep per-packet generation consistency.
func TestChainServeAndSwap(t *testing.T) {
	stages, err := core.AnalyzeChain([]string{"dpi", "snortlite"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stages2, err := core.AnalyzeChain([]string{"dpi", "snortlite"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.New(5).RandomTrace(240)

	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sink := &recordSink{}
			srv, err := New(Candidate{Stages: stages, Shards: shards}, Config{
				Source:     NewTraceSource(trace, true, 768),
				Sink:       sink,
				BatchSize:  64,
				WindowSize: 256,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, name := srv.Generation(); name != "dpi->snortlite" {
				t.Errorf("generation name = %q", name)
			}
			// Queued before Run starts: the snapshot check below needs the
			// swap at packet 256 exactly, not wherever the loop has got to.
			ch := srv.RequestSwap(SwapRequest{
				Candidate:    Candidate{Stages: stages2, Shards: shards},
				AfterPackets: 256,
			})
			done := runServer(srv)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			rep := <-ch
			if rep.Blocked {
				t.Fatalf("identical chain re-synthesis blocked: %s\n%s", rep.Reason, rep.Render())
			}
			if rep.Carried == 0 {
				t.Errorf("no chain state carried:\n%s", rep.Render())
			}
			hopNamed := false
			for _, d := range rep.Decisions {
				if strings.HasPrefix(d.Var, "dpi#0:") || strings.HasPrefix(d.Var, "snortlite#1:") {
					hopNamed = true
				}
			}
			if !hopNamed {
				t.Errorf("carry decisions not hop-namespaced: %+v", rep.Decisions)
			}
			stats := srv.Stats()
			if stats.Packets != 768 || stats.Swaps != 1 || stats.EpochViolations != 0 {
				t.Errorf("stats = %s", stats.Report())
			}
			// Engine telemetry is generation-local (the swap installs a
			// fresh plane); the continuous counter is ServeStats.Packets.
			if snap := srv.Snapshot(); snap.Packets != 768-256 {
				t.Errorf("generation-2 snapshot packets = %d, want %d", snap.Packets, 768-256)
			}
			checkEpochStream(t, sink.epochs, 64, 1)
		})
	}
}

// --- satellite: sources, sinks, lifecycle -----------------------------

// TestSwapPendingAnsweredOnDrain: a swap whose packet threshold is
// never reached must still get its report when the source drains.
func TestSwapPendingAnsweredOnDrain(t *testing.T) {
	base := analyzeNF(t, "firewall")
	srv, err := New(Candidate{Analysis: base}, Config{
		Source: NewTraceSource(firewallTrace(128), false, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ch := srv.RequestSwap(SwapRequest{
		Candidate:    Candidate{Analysis: base},
		AfterPackets: 1 << 30,
	})
	if err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	rep := <-ch
	if !rep.Blocked || !strings.Contains(rep.Reason, "stopped before the swap point") {
		t.Errorf("pending swap report = %+v", rep)
	}
}

// TestReaderSource parses a stream with comments, blanks and a
// malformed line; the server serves exactly the valid packets.
func TestReaderSource(t *testing.T) {
	var lines strings.Builder
	lines.WriteString("# a comment\n\n")
	trace := firewallTrace(3)
	lines.WriteString(netpkt.FormatLine(trace[0]) + "\n")
	lines.WriteString("this is not a packet\n")
	lines.WriteString(netpkt.FormatLine(trace[1]) + "\n")
	lines.WriteString(netpkt.FormatLine(trace[2]) + "\n")

	src := NewReaderSource(strings.NewReader(lines.String()))
	srv, err := New(Candidate{Analysis: analyzeNF(t, "firewall")}, Config{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Packets; got != 3 {
		t.Errorf("served %d packets, want 3", got)
	}
	if src.Malformed() != 1 {
		t.Errorf("malformed = %d, want 1", src.Malformed())
	}
}

// TestReaderSourceLongLineAndReadError: a line over 64 KiB is one
// malformed line, not the end of the stream, and a failing reader ends
// Run with its error after what was read has been served.
func TestReaderSourceLongLineAndReadError(t *testing.T) {
	trace := firewallTrace(3)
	input := netpkt.FormatLine(trace[0]) + "\n" +
		strings.Repeat("x", 3*maxLine) + "\n" +
		netpkt.FormatLine(trace[1]) + "\n" +
		netpkt.FormatLine(trace[2]) + "\n" +
		"tcp 10.0.0.1:1 > cut short by the fail"
	broken := errors.New("disk on fire")
	src := NewReaderSource(io.MultiReader(strings.NewReader(input), iotest.ErrReader(broken)))
	sink := &recordSink{}
	srv, err := New(Candidate{Analysis: analyzeNF(t, "firewall")}, Config{Source: src, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Run(); !errors.Is(err, broken) {
		t.Errorf("Run = %v, want the reader's error", err)
	}
	if len(sink.pkts) != 3 {
		t.Fatalf("served %d packets, want the 3 valid lines", len(sink.pkts))
	}
	for i := range sink.pkts {
		if sink.pkts[i] != trace[i] {
			t.Errorf("packet %d = %s, want %s", i, &sink.pkts[i], &trace[i])
		}
	}
	if src.Malformed() != 1 {
		t.Errorf("malformed = %d, want 1 (the over-long line; the cut line is dropped with the error)", src.Malformed())
	}
}

// TestUDPSource serves datagrams from a loopback socket at the default
// batch size; Close drains the server cleanly.
func TestUDPSource(t *testing.T) {
	src, conn := udpPair(t)
	sink := newSignalSink()
	srv, err := New(Candidate{Analysis: analyzeNF(t, "firewall")}, Config{Source: src, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	done := runServer(srv)

	send(t, conn, "garbage datagram")
	for _, p := range firewallTrace(3) {
		send(t, conn, netpkt.FormatLine(p))
	}
	sink.await(t, 3, 5*time.Second)
	src.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Packets; got != 3 {
		t.Errorf("served %d packets, want 3", got)
	}
	if src.Malformed() != 1 {
		t.Errorf("malformed = %d, want 1", src.Malformed())
	}
}

// TestWriterSink renders one line per outcome in replay format.
func TestWriterSink(t *testing.T) {
	var out strings.Builder
	sink := NewWriterSink(&out)
	trace := firewallTrace(2)
	v := netpkt.Verdict{Dropped: true}
	if err := sink.Emit(1, &trace[0], &Outcome{Verdict: v, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "DROP") {
		t.Errorf("sink output: %q", out.String())
	}
}
