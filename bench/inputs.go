package main

import (
	"fmt"
	"math/rand"
	"time"

	"nfactor/internal/buzz"
	"nfactor/internal/core"
	"nfactor/internal/dataplane"
	"nfactor/internal/interp"
	"nfactor/internal/netpkt"
	"nfactor/internal/nfs"
	"nfactor/internal/serve"
	"nfactor/internal/value"
	"nfactor/internal/workload"
)

// workers is the fixed worker and shard count of every workload. It is
// a constant, not nproc, so two machines run the same configuration.
const workers = 2

// refPackets is how many leading packets of every data-path trace are
// also run through the reference interpreter of the original program.
const refPackets = 20000

// diffPackets is how many random packets the control family's DiffTest
// replays through each NF's program and model.
const diffPackets = 300

// profile shapes the traffic one NF (or chain) is served, so that its
// stateful entries fire instead of the implicit default drop.
type profile struct {
	iface      string // in_iface of client packets ("" keeps eth0)
	vip        string // service address every flow targets ("" draws random ones)
	port       int    // service port, with vip
	replyIface string // interface replies come back on ("" sends no replies)
	payloads   bool   // a share of packets carries a payload the DPI signatures match
}

// Where an NF's verdict depends on the destination, every flow gets the
// same destination: under Zipf(1.2) the hottest flow carries a fifth of
// the packets, and a draw that put it on a blocked port in one seed and
// an allowed one in the next would move every metric by input alone.
var profiles = map[string]profile{
	"balance":      {vip: "3.3.3.3", port: 80},
	"dpi":          {payloads: true},
	"firewall":     {iface: "lan", vip: "9.9.9.9", port: 443, replyIface: "wan"},
	"lb":           {vip: "3.3.3.3", port: 80, replyIface: "eth0"},
	"mirror":       {vip: "9.9.9.9", port: 22},
	"nat":          {iface: "lan", replyIface: "wan"},
	"ratelimit":    {},
	"snortlite":    {},
	"fw-rl-ids-lb": {iface: "lan", vip: "3.3.3.3", port: 80},
	"dpi-ids":      {payloads: true},
}

// analyzeNF synthesizes one corpus NF the way every serving plane of
// the benchmark gets its model.
func analyzeNF(name string) (*core.Analysis, error) {
	nf, err := nfs.Load(name)
	if err != nil {
		return nil, err
	}
	return core.Analyze(name, nf.Prog, core.Options{Workers: workers})
}

// traceSpec sizes one generated trace.
type traceSpec struct {
	packets int
	flows   int     // size of the active Zipf flow set
	churn   float64 // per-packet probability that the drawn flow is replaced by a fresh one
	replies bool    // interleave the replies the NF's own output provokes
	cover   bool    // lead with a model-guided prefix that fires every reachable entry, and draw one packet in 32 at random
}

// genTrace builds the open-loop trace for one plane: an optional
// model-guided prefix, then Zipf(s=1.2) client traffic shaped by the
// plane's profile, with (for cover) one packet in 32 drawn uniformly at
// random and (for replies) a reply after one forwarded packet in four. Replies are
// made from the output of a scratch compiled engine, never from the
// plane under test.
func genTrace(name string, an *core.Analysis, ts traceSpec, seed int64) ([]netpkt.Packet, error) {
	prof := profiles[name]
	g := workload.New(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]netpkt.Packet, 0, ts.packets)

	if ts.cover {
		config, state, err := an.ConfigAndState(nil)
		if err != nil {
			return nil, err
		}
		suite, err := buzz.Generate(an.Model, config, state, buzz.Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		for _, st := range suite.Steps {
			if p, err := netpkt.FromValue(st.Pkt); err == nil && len(out) < ts.packets {
				out = append(out, p)
			}
		}
	}

	var scratch *dataplane.Engine
	if ts.replies && prof.replyIface != "" {
		eng, err := an.CompiledEngine(core.Options{})
		if err != nil {
			return nil, err
		}
		scratch = eng
		for i := range out {
			if _, err := eng.Process(&out[i]); err != nil {
				return nil, err
			}
		}
	}

	bulk := g.SkewedTrace(ts.packets, workload.ZipfOpts{
		Flows: ts.flows, Skew: 1.2, Churn: ts.churn, VIP: prof.vip, Port: prof.port,
	})
	for i := range bulk {
		if len(out) >= ts.packets {
			break
		}
		p := bulk[i]
		if prof.iface != "" {
			p.InIface = prof.iface
		}
		if prof.payloads && rng.Intn(16) == 0 {
			p.Payload = dpiPayloads[rng.Intn(len(dpiPayloads))]
		}
		if ts.cover && rng.Intn(32) == 0 {
			p = g.Random()
		}
		out = append(out, p)
		if scratch == nil {
			continue
		}
		o, err := scratch.Process(&out[len(out)-1])
		if err != nil {
			return nil, err
		}
		if !o.Dropped && len(o.Sent) > 0 && rng.Intn(4) == 0 && len(out) < ts.packets {
			r := o.Sent[0].Pkt
			r.SrcIP, r.DstIP = r.DstIP, r.SrcIP
			r.SrcPort, r.DstPort = r.DstPort, r.SrcPort
			r.Flags, r.InIface = "A", prof.replyIface
			out = append(out, r)
			if _, err := scratch.Process(&out[len(out)-1]); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// dpiPayloads mixes benign content with the three signatures dpi.nfl
// matches, so strikes accumulate and sources get quarantined.
var dpiPayloads = []string{
	"GET / HTTP/1.1", "hello world", "{\"json\": true}",
	"SELECT * FROM users", "cat /etc/passwd", "\\x90\\x90\\x90 shellcode",
}

// reference is the interpreter of the original NFLang program (for a
// chain: one interpreter per stage, each sent packet feeding the next
// stage in traversal order). It is the only source of expected
// verdicts; no compiled engine takes part.
type reference struct {
	stages []*interp.Interp
}

func newReference(ans []*core.Analysis) (*reference, error) {
	r := &reference{}
	for _, an := range ans {
		in, err := interp.New(an.Original, an.Entry, interp.Options{})
		if err != nil {
			return nil, err
		}
		r.stages = append(r.stages, in)
	}
	return r, nil
}

func (r *reference) process(p *netpkt.Packet) (netpkt.Verdict, error) {
	var v netpkt.Verdict
	if err := r.step(0, p.ToValue(), "", &v); err != nil {
		return v, err
	}
	v.Dropped = len(v.Sent) == 0
	return v, nil
}

func (r *reference) step(i int, pkt value.Value, iface string, v *netpkt.Verdict) error {
	if i == len(r.stages) {
		p, err := netpkt.FromValue(pkt)
		if err != nil {
			return err
		}
		v.Sent = append(v.Sent, p)
		v.Ifaces = append(v.Ifaces, iface)
		return nil
	}
	out, err := r.stages[i].Process(pkt)
	if err != nil {
		return err
	}
	for _, s := range out.Sent {
		if err := r.step(i+1, s.Pkt, s.Iface, v); err != nil {
			return err
		}
	}
	return nil
}

// referenceVerdicts runs the first refPackets packets of trace through
// the reference interpreter.
func referenceVerdicts(ans []*core.Analysis, trace []netpkt.Packet, n int) ([]netpkt.Verdict, error) {
	ref, err := newReference(ans)
	if err != nil {
		return nil, err
	}
	if n > len(trace) {
		n = len(trace)
	}
	out := make([]netpkt.Verdict, n)
	for i := range out {
		if out[i], err = ref.process(&trace[i]); err != nil {
			return nil, fmt.Errorf("reference packet %d: %w", i, err)
		}
	}
	return out, nil
}

// sameVerdict compares a served verdict with the reference one. eq is
// nil for an exact comparison. A sharded plane gives each shard its own
// allocator sub-range and rotor, so its ports and backends differ from
// the sequential program's; dataplane.Equiv accepts exactly that: a
// bijection on allocated values and a per-flow pairing of rotor picks.
func sameVerdict(p *netpkt.Packet, want, got *netpkt.Verdict, eq *dataplane.Equiv) bool {
	if eq != nil {
		return eq.CompareOutputs(dataplane.FlowKey(p), outputOf(want), outputOf(got)) == ""
	}
	if want.Dropped != got.Dropped || len(want.Sent) != len(got.Sent) {
		return false
	}
	for i := range want.Sent {
		if want.Ifaces[i] != got.Ifaces[i] || want.Sent[i] != got.Sent[i] {
			return false
		}
	}
	return true
}

func outputOf(v *netpkt.Verdict) *dataplane.Output {
	o := &dataplane.Output{Dropped: v.Dropped}
	for i := range v.Sent {
		o.Sent = append(o.Sent, dataplane.SentPacket{Pkt: v.Sent[i], Iface: v.Ifaces[i]})
	}
	return o
}

// checkSink is the benchmark's Sink. It requires every packet to be
// answered exactly once and in order, compares the leading verdicts
// with the reference, and folds entry, drop flag and rewritten ports of
// every verdict into a digest that must repeat across reps.
type checkSink struct {
	ref      []netpkt.Verdict
	eq       *dataplane.Equiv
	n        int64
	digest   uint64
	outOrder int64
	mismatch int64
	// every, when above 0, makes the sink note the time of every
	// every-th Emit in stamps: the boundaries of a pass's segments.
	every  int64
	stamps []time.Time
	// onEmit, when set, also sees every outcome (latency stamps, epoch
	// watching); it runs after the checks.
	onEmit func(seq int64, o *serve.Outcome)
}

const fnvPrime = 1099511628211

func (c *checkSink) Emit(seq int64, p *netpkt.Packet, o *serve.Outcome) error {
	c.n++
	if seq != c.n {
		c.outOrder++
	}
	if c.n <= int64(len(c.ref)) && !sameVerdict(p, &c.ref[c.n-1], &o.Verdict, c.eq) {
		c.mismatch++
	}
	h := c.digest ^ uint64(int64(o.Entry))
	h *= fnvPrime
	if o.Verdict.Dropped {
		h ^= 1
		h *= fnvPrime
	}
	for i := range o.Verdict.Sent {
		h ^= uint64(o.Verdict.Sent[i].SrcPort)<<16 | uint64(o.Verdict.Sent[i].DstPort)
		h *= fnvPrime
	}
	c.digest = h
	if c.every > 0 && c.n%c.every == 0 {
		c.stamps = append(c.stamps, time.Now())
	}
	if c.onEmit != nil {
		c.onEmit(seq, o)
	}
	return nil
}

// verify reports the sink's findings over a run that should have
// answered want packets.
func (c *checkSink) verify(r *report, what string, want int64) {
	if c.n != want {
		r.fail(abs(want-c.n), "%s: %d packets answered, want %d", what, c.n, want)
	}
	if c.outOrder > 0 {
		r.fail(c.outOrder, "%s: %d packets answered out of order", what, c.outOrder)
	}
	if c.mismatch > 0 {
		r.fail(c.mismatch, "%s: %d verdicts differ from the reference interpreter", what, c.mismatch)
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
